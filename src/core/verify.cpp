#include "core/verify.hpp"

#include <sstream>
#include <unordered_map>

#include "common/assert.hpp"

namespace micco {

std::string validate_stream_structure(const WorkloadStream& stream) {
  // Determinism audit (DESIGN.md §5e): this map is probed only; validation
  // walks vectors/tasks in stream order, so the first error reported is a
  // pure function of the stream, not of hash layout. One map (output ->
  // producing stage) keeps the check cheap enough for daemon admission.
  std::size_t tasks = 0;
  for (const VectorWorkload& vec : stream.vectors) tasks += vec.tasks.size();
  std::unordered_map<TensorId, std::size_t> produced_in;
  produced_in.reserve(tasks);
  for (std::size_t stage = 0; stage < stream.vectors.size(); ++stage) {
    for (const ContractionTask& task : stream.vectors[stage].tasks) {
      // kInvalidTensor marks "no tensor"; the simulator requires a real
      // output id.
      if (!task.out.valid()) return "invalid output descriptor";
      if (!produced_in.emplace(task.out.id, stage).second) {
        std::ostringstream os;
        os << "output tensor " << task.out.id << " produced twice";
        return os.str();
      }
    }
  }

  for (std::size_t stage = 0; stage < stream.vectors.size(); ++stage) {
    for (const ContractionTask& task : stream.vectors[stage].tasks) {
      for (const TensorDesc* operand : {&task.a, &task.b}) {
        if (!operand->valid()) return "invalid operand descriptor";
        // Originals are never produced; a produced tensor is usable only
        // after the barrier of the stage producing it.
        const auto it = produced_in.find(operand->id);
        if (it != produced_in.end() && it->second >= stage) {
          std::ostringstream os;
          os << "stage " << stage << " consumes tensor " << operand->id
             << " before the stage producing it has completed";
          return os.str();
        }
      }
      if ((task.a.rank != 2 && task.a.rank != 3) ||
          (task.b.rank != 2 && task.b.rank != 3)) {
        return "operand ranks must be 2 or 3";
      }
      if (task.a.extent != task.b.extent || task.a.batch != task.b.batch) {
        return "operand shapes are not contractable";
      }
      if (task.out.rank != contraction_result_rank(task.a.rank, task.b.rank)) {
        return "output rank does not match the contraction rules";
      }
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
