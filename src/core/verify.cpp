#include "core/verify.hpp"

#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/assert.hpp"

namespace micco {

namespace {

constexpr const char* kTotals =
    "stream total FLOPs or distinct bytes exceed 2^64-1";

std::string consumed_early(std::size_t stage, TensorId id) {
  std::ostringstream os;
  os << "stage " << stage << " consumes tensor " << id
     << " before the stage producing it has completed";
  return os.str();
}

}  // namespace

std::string validate_stream_structure(const WorkloadStream& stream) {
  // Determinism audit (DESIGN.md §5e): `ids` is probed, never iterated, and
  // the walk visits tasks in stream order, so the problem reported is a
  // function of the stream alone, not of hash layout.
  struct IdUse {
    std::size_t stage;  ///< the producing stage, or the first consuming one
    bool produced;
  };
  std::size_t tasks = 0;
  for (const VectorWorkload& vec : stream.vectors) tasks += vec.tasks.size();
  std::unordered_map<TensorId, IdUse> ids;
  ids.reserve(2 * tasks);
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
  for (std::size_t stage = 0; stage < stream.vectors.size(); ++stage) {
    for (const ContractionTask& task : stream.vectors[stage].tasks) {
      const TensorDesc* const descs[] = {&task.a, &task.b, &task.out};
      std::uint64_t payload[3];
      for (int i = 0; i < 3; ++i) {
        const TensorDesc& d = *descs[i];
        // kInvalidTensor marks "no tensor"; the simulator requires real ids.
        if (!d.valid()) {
          return i < 2 ? "invalid operand descriptor"
                       : "invalid output descriptor";
        }
        // The rank comes first: checked_bytes() loops `rank` times.
        if ((d.rank != 2 && d.rank != 3) || d.extent < 1 || d.batch < 1) {
          return "invalid tensor descriptor";
        }
        const std::optional<std::uint64_t> checked = d.checked_bytes();
        if (!checked.has_value()) return "tensor payload exceeds 2^64-1 bytes";
        payload[i] = *checked;
      }
      if (task.a.extent != task.b.extent || task.a.batch != task.b.batch) {
        return "operands are not contractable";
      }
      if (task.out.rank != contraction_result_rank(task.a.rank, task.b.rank)) {
        return "output rank does not match the contraction rules";
      }
      if (!task.counts_fit()) return "task FLOPs or kernel bytes exceed 2^64-1";

      if (__builtin_add_overflow(flops, task.flops(), &flops)) return kTotals;

      // Originals are never produced; a produced tensor is usable only
      // after the barrier of the stage producing it. Each id's payload
      // counts once, when the map first sees it.
      for (int i = 0; i < 2; ++i) {
        const auto [it, first] =
            ids.try_emplace(descs[i]->id, IdUse{stage, false});
        if (first && __builtin_add_overflow(bytes, payload[i], &bytes)) {
          return kTotals;
        }
        if (!first && it->second.produced && it->second.stage >= stage) {
          return consumed_early(stage, descs[i]->id);
        }
      }
      const auto [it, first] = ids.try_emplace(task.out.id, IdUse{stage, true});
      if (!first && it->second.produced) {
        std::ostringstream os;
        os << "output tensor " << task.out.id << " produced twice";
        return os.str();
      }
      // An id consumed as an original and produced afterwards.
      if (!first) return consumed_early(it->second.stage, task.out.id);
      if (__builtin_add_overflow(bytes, payload[2], &bytes)) return kTotals;
    }
  }
  return "";
}

Tensor materialize_original(const TensorDesc& desc) {
  MICCO_EXPECTS(desc.valid());
  const Shape shape = desc.rank == 2 ? Shape::matrix(desc.batch, desc.extent)
                                     : Shape::rank3(desc.batch, desc.extent);
  // Seeded by the tensor's identity: every appearance of a repeated hadron
  // node materialises identical data, wherever and whenever it is fetched.
  Pcg32 rng(desc.id * 0x9e3779b97f4a7c15ULL + 1ULL);
  return Tensor::random(shape, rng);
}

NumericResult execute_numerically(const WorkloadStream& stream,
                                  std::uint64_t byte_limit) {
  const std::string structural_error = validate_stream_structure(stream);
  MICCO_EXPECTS_MSG(structural_error.empty(),
                    "stream failed structural validation");

  // Determinism audit (DESIGN.md §5e): this map is only ever probed with
  // find/emplace — never iterated — and the digest accumulates in task order,
  // so the hash layout cannot reach the numeric result or any error message.
  std::unordered_map<TensorId, Tensor> live;
  NumericResult result;
  std::uint64_t live_bytes = 0;

  const auto obtain = [&](const TensorDesc& desc) -> const Tensor& {
    const auto it = live.find(desc.id);
    if (it != live.end()) return it->second;
    Tensor t = materialize_original(desc);
    live_bytes += t.bytes();
    MICCO_EXPECTS_MSG(live_bytes <= byte_limit,
                      "numeric execution exceeds the byte limit");
    return live.emplace(desc.id, std::move(t)).first->second;
  };

  for (const VectorWorkload& vec : stream.vectors) {
    for (const ContractionTask& task : vec.tasks) {
      const Tensor& a = obtain(task.a);
      const Tensor& b = obtain(task.b);
      Tensor out = [&] {
        if (task.a.rank == 2 && task.b.rank == 2) return contract_meson(a, b);
        if (task.a.rank == 3 && task.b.rank == 3) return contract_baryon(a, b);
        // Mixed: orient so the matrix comes first.
        return task.a.rank == 2 ? contract_mixed(a, b)
                                : contract_mixed(b, a);
      }();
      result.digest += out.frobenius_norm();
      live_bytes += out.bytes();
      MICCO_EXPECTS_MSG(live_bytes <= byte_limit,
                        "numeric execution exceeds the byte limit");
      live.emplace(task.out.id, std::move(out));
      ++result.tasks_executed;
      result.peak_bytes = std::max(result.peak_bytes, live_bytes);
    }
  }
  return result;
}

}  // namespace micco
