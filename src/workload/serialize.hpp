// Workload stream (de)serialization.
//
// A captured stream — synthetic, or emitted by a Redstar-style frontend —
// can be written to a portable text file and replayed later against any
// scheduler/cluster configuration, which is how real scheduling workloads
// get shared and regression-tested. Line-oriented, versioned:
//   micco-workload v1
//   meta <vector_size> <extent> <batch> <repeated_rate> <distribution>
//   vectors <count>
//   vector <task_count>
//   task <a.id> <a.rank> <a.extent> <a.batch> <b...> <out...>   (one per line)
// Tokens are separated by any run of spaces, tabs, newlines, \v, \f or \r.
// Every number is an unsigned decimal with no sign, read in full: `-1`,
// `+2` and `1x` are rejected. The rate may carry a fraction and an exponent
// and must be finite. Tensor ids lie below 2^64 - 1, the value that marks
// "no tensor": the reader takes it, and validate_stream_structure rejects
// it. Text after the last declared task is ignored.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "workload/task.hpp"

namespace micco {

/// Writes a stream; aborts on I/O failure (programmer-controlled sink).
void save_stream(const WorkloadStream& stream, std::ostream& out);
void save_stream_file(const WorkloadStream& stream, const std::string& path);

/// Reads a stream back from its text. Returns nullopt and sets `error` on
/// malformed input (external data: never aborts); every size the stream
/// implies fits 64 bits. Structure (produce before consume, valid ids) is
/// validate_stream_structure's to check.
std::optional<WorkloadStream> load_stream_text(std::string_view text,
                                               std::string* error = nullptr);
/// load_stream_text over the rest of `in`, which it reads to the end.
std::optional<WorkloadStream> load_stream(std::istream& in,
                                          std::string* error = nullptr);
std::optional<WorkloadStream> load_stream_file(const std::string& path,
                                               std::string* error = nullptr);

}  // namespace micco
