#include "core/tuner.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <numeric>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "parallel/parallel.hpp"

namespace micco {

std::string TunerConfig::validate() const {
  if (samples < 1) return "tuner: samples must be >= 1";
  if (vector_sizes.empty() || tensor_extents.empty() ||
      repeated_rates.empty()) {
    return "tuner: vector sizes, tensor extents and repeated rates must be "
           "non-empty";
  }
  if (max_bound < 0) return "tuner: max_bound must be >= 0";
  for (const std::int64_t vector_size : vector_sizes) {
    for (const std::int64_t extent : tensor_extents) {
      for (const double rate : repeated_rates) {
        SyntheticConfig synth;
        synth.num_vectors = num_vectors;
        synth.batch = batch;
        synth.vector_size = vector_size;
        synth.tensor_extent = extent;
        synth.repeated_rate = rate;
        const std::string problem = synth.validate();
        if (!problem.empty()) return "tuner: " + problem;
      }
    }
  }
  ClusterConfig cluster;
  cluster.num_devices = num_devices;
  cluster.device_capacity_bytes = device_capacity_bytes;
  return cluster.validate();
}

double measure_gflops(const WorkloadStream& stream, ReuseBounds bounds,
                      const ClusterConfig& cluster) {
  MiccoSchedulerOptions options;
  options.bounds = bounds;
  MiccoScheduler scheduler(options);
  const RunResult result = run_stream(stream, scheduler, cluster);
  return result.metrics.gflops();
}

namespace {

/// The per-tier bounding box of `triples`: the region whose triples
/// sweep_bound_grid asks its recorded boxes about.
BoundInterval bounding_box(std::span<const ReuseBounds> triples) {
  BoundInterval box;
  box.lo.fill(BoundInterval::kMax);
  box.hi.fill(BoundInterval::kMin);
  for (const ReuseBounds& bounds : triples) {
    for (std::size_t k = 0; k < 3; ++k) {
      box.lo[k] = std::min(box.lo[k], bounds[k]);
      box.hi[k] = std::max(box.hi[k], bounds[k]);
    }
  }
  return box;
}

/// Where a run resumes: before task `task` of vector `vector` executes,
/// that vector begun, with `depth` pairs decided before it.
struct Cursor {
  std::size_t vector = 0;
  std::size_t task = 0;
  std::uint64_t depth = 0;
};

/// Triples that left one run's box at one decision, in list order, and the
/// checkpoint they resume from: the simulator before the pair at `at`
/// executes and the scheduler as it stood before it assigned that pair.
struct Branch {
  explicit Branch(const ClusterConfig& cluster) : sim(cluster) {}

  std::vector<std::size_t> triples;
  ClusterSimulator sim;
  MiccoScheduler scheduler;
  Cursor at;
};

/// One sweep_bound_grid call: a depth-first walk over branches. Each
/// simulated run vouches for every triple in its recorded box: with any of
/// them, each decision — and so every metric — comes out the same. A
/// watched triple leaves the box at the decision that no longer vouches for
/// it; until then its own run would repeat this one, so the triples that
/// leave at one decision form a branch that resumes there (DESIGN.md §5d).
class GridSweep {
 public:
  GridSweep(const WorkloadStream& stream, std::span<const ReuseBounds> triples,
            const ClusterConfig& cluster)
      : stream_(stream), triples_(triples), cluster_(cluster), sim_(cluster) {}

  BoundSweep run() {
    sweep_.gflops.resize(triples_.size());
    if (triples_.empty()) return std::move(sweep_);
    // The root branch: every triple, from vector 0 on the fresh simulator.
    // Only triples of this list are asked about, so each run records its
    // box inside their bounding box and stops once the box holds its own
    // triple alone there.
    MiccoSchedulerOptions options;
    options.bounds = triples_.front();
    options.record_bound_interval = bounding_box(triples_);
    scheduler_ = MiccoScheduler(options);
    watch_.resize(triples_.size());
    std::iota(watch_.begin(), watch_.end(), std::size_t{0});
    simulate(Cursor{}, /*root=*/true);
    while (!pending_.empty()) {
      const std::size_t slot = pending_.back();
      pending_.pop_back();
      Branch& branch = slots_[slot];
      // No other branch resumes here, so the run takes the copies as they
      // are, and the slot is free for the run's own checkpoints.
      std::swap(sim_, branch.sim);
      std::swap(scheduler_, branch.scheduler);
      std::swap(watch_, branch.triples);
      const Cursor at = branch.at;
      free_.push_back(slot);
      scheduler_.rebind_bounds(triples_[watch_.front()]);
      ++sweep_.forked;
      simulate(at, /*root=*/false);
    }
    return std::move(sweep_);
  }

 private:
  /// The run of watch_'s first triple from `from`, watching the others: the
  /// fault-free part of run_stream that the sweep reads. Per non-empty
  /// vector: characteristics (root run only), begin_vector, assign +
  /// execute per pair in stream order, end_vector and barrier. No clock is
  /// read and no RunResult built. The run stops at the first pair that does
  /// not complete, where run_stream stops, and answers its triple and the
  /// triples still watched with the GFLOPS reached so far.
  void simulate(Cursor from, bool root) {
    const std::size_t i = watch_.front();
    watch_.erase(watch_.begin());
    std::uint64_t depth = from.depth;
    const std::vector<VectorWorkload>& vectors = stream_.vectors;
    bool completed = true;
    for (std::size_t v = from.vector; v < vectors.size(); ++v) {
      const VectorWorkload& vec = vectors[v];
      if (vec.tasks.empty()) continue;
      const bool begun = !root && v == from.vector;
      if (!begun) {
        if (root) {
          sweep_.first_run_characteristics.push_back(
              extract_characteristics(vec, sim_));
        }
        scheduler_.begin_vector(vec, sim_);
      }
      for (std::size_t t = begun ? from.task : 0; t < vec.tasks.size(); ++t) {
        const ContractionTask& task = vec.tasks[t];
        const DeviceId dev = scheduler_.assign(task, sim_);
        if (!watch_.empty()) note_departures(Cursor{v, t, depth});
        ++depth;
        if (!sim_.execute(task, dev).ok()) {
          completed = false;
          break;
        }
      }
      if (!completed) break;
      scheduler_.end_vector();
      sim_.barrier();
    }
    ++sweep_.simulated;
    sweep_.pairs_simulated += depth - from.depth;
    sweep_.pairs += depth;

    // The triples still watched are inside the final box: this run answers
    // them.
    const double gflops = sim_.metrics().gflops();
    sweep_.gflops[i] = gflops;
    for (const std::size_t j : watch_) sweep_.gflops[j] = gflops;
    sweep_.reused += watch_.size();
  }

  /// After the assign at `at`: the watched triples the narrowed box lost
  /// leave the watch together, as one branch that resumes there.
  void note_departures(const Cursor& at) {
    const BoundInterval box = scheduler_.bound_interval();
    Branch* branch = nullptr;
    std::size_t kept = 0;
    for (const std::size_t j : watch_) {
      if (box.contains(triples_[j])) {
        watch_[kept++] = j;
        continue;
      }
      if (branch == nullptr) branch = &checkpoint(at);
      branch->triples.push_back(j);
    }
    watch_.resize(kept);
  }

  /// A new pending branch at `at`, with no triples yet, in a pooled slot:
  /// a copy of the run as it stands (the pair is assigned, not yet
  /// executed) with the scheduler rewound to before that assign.
  Branch& checkpoint(const Cursor& at) {
    std::size_t slot;
    if (free_.empty()) {
      slot = slots_.size();
      slots_.emplace_back(cluster_);
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    pending_.push_back(slot);
    Branch& branch = slots_[slot];
    branch.triples.clear();
    branch.sim = sim_;
    branch.scheduler = scheduler_;
    branch.scheduler.rewind_last_assign();
    branch.at = at;
    return branch;
  }

  const WorkloadStream& stream_;
  std::span<const ReuseBounds> triples_;
  ClusterConfig cluster_;
  /// The run in progress and the triples it watches, in list order.
  ClusterSimulator sim_;
  MiccoScheduler scheduler_;
  std::vector<std::size_t> watch_;
  /// Branches, pending or free for reuse; a deque keeps them in place.
  /// The pending ones form a stack, so the walk is depth-first.
  std::deque<Branch> slots_;
  std::vector<std::size_t> pending_;
  std::vector<std::size_t> free_;
  BoundSweep sweep_;
};

}  // namespace

BoundSweep sweep_bound_grid(const WorkloadStream& stream,
                            std::span<const ReuseBounds> triples,
                            const ClusterConfig& cluster) {
  MICCO_EXPECTS(cluster.validate().empty());
  return GridSweep(stream, triples, cluster).run();
}

namespace {

/// Everything one stream of one sample contributes, computed independently
/// of every other (sample, stream) item so the sweep fans out across the
/// pool: the grid's GFLOPS, plus the features for a sample's first stream.
struct StreamSweep {
  DataCharacteristics characteristics;
  BoundSweep grid;
};

/// Features are derived exactly the way the online path derives them — by
/// extracting per-vector characteristics during a MICCO-naive run and
/// averaging the steady-state vectors. Training on generator ground truth
/// instead would put online queries (estimated bias, observed residency
/// rate) in a region of feature space the model never saw.
DataCharacteristics steady_state_mean(
    const std::vector<DataCharacteristics>& per_vector) {
  MICCO_ASSERT(!per_vector.empty());
  const std::size_t skip = per_vector.size() > 1 ? 1 : 0;  // warm-up
  double n = 0.0;
  DataCharacteristics c;
  for (std::size_t v = skip; v < per_vector.size(); ++v) {
    c.vector_size += per_vector[v].vector_size;
    c.tensor_extent += per_vector[v].tensor_extent;
    c.distribution_bias += per_vector[v].distribution_bias;
    c.repeated_rate += per_vector[v].repeated_rate;
    n += 1.0;
  }
  c.vector_size /= n;
  c.tensor_extent /= n;
  c.distribution_bias /= n;
  c.repeated_rate /= n;
  return c;
}

}  // namespace

std::vector<SyntheticConfig> tuning_stream_configs(const TunerConfig& config) {
  const std::string problem = config.validate();
  MICCO_EXPECTS_MSG(problem.empty(), problem.c_str());

  // The configuration draws are the sweep's only cross-sample RNG, so they
  // happen serially up front (cheap, same draw order as ever); the heavy
  // simulation work per stream is then a pure function of its configuration
  // and fans out across the pool with bit-identical results at any thread
  // count.
  Pcg32 rng(config.seed, /*stream=*/0x70405ULL);
  const auto group =
      static_cast<std::size_t>(std::max(1, config.seeds_per_sample));
  std::vector<SyntheticConfig> configs;
  configs.reserve(static_cast<std::size_t>(config.samples) * group);
  for (int s = 0; s < config.samples; ++s) {
    SyntheticConfig synth;
    synth.num_vectors = config.num_vectors;
    synth.batch = config.batch;
    synth.vector_size = config.vector_sizes[rng.uniform_below(
        static_cast<std::uint32_t>(config.vector_sizes.size()))];
    synth.tensor_extent = config.tensor_extents[rng.uniform_below(
        static_cast<std::uint32_t>(config.tensor_extents.size()))];
    synth.repeated_rate = config.repeated_rates[rng.uniform_below(
        static_cast<std::uint32_t>(config.repeated_rates.size()))];
    synth.distribution = rng.uniform_below(2) == 0
                             ? DataDistribution::kUniform
                             : DataDistribution::kGaussian;
    // Several independent streams of each configuration; bounds are scored
    // on their mean GFLOPS across the group. The group's seeds are a pure
    // function of the configuration (not of the sample index), so the
    // measured "optimal bounds of this configuration" is a deterministic
    // label — re-sampling a configuration reproduces it, as re-measuring a
    // setting on hardware would.
    const std::uint64_t config_hash =
        (static_cast<std::uint64_t>(synth.vector_size) * 0x9e3779b1ULL) ^
        (static_cast<std::uint64_t>(synth.tensor_extent) * 0x85ebca6bULL) ^
        (static_cast<std::uint64_t>(synth.repeated_rate * 100.0) *
         0xc2b2ae35ULL) ^
        (synth.distribution == DataDistribution::kGaussian ? 0x27d4eb2fULL
                                                           : 0ULL) ^
        config.seed;
    for (std::size_t k = 0; k < group; ++k) {
      synth.seed = config_hash + static_cast<std::uint64_t>(k) * 0x2545f491ULL;
      configs.push_back(synth);
    }
  }
  return configs;
}

TuningData generate_tuning_data(const TunerConfig& config) {
  const std::vector<SyntheticConfig> synths = tuning_stream_configs(config);
  const auto num_samples = static_cast<std::size_t>(config.samples);
  const std::size_t group = synths.size() / num_samples;
  const std::vector<ReuseBounds> grid = bound_grid(config.max_bound);
  // The grid opens with MICCO-naive's zero triple, so a stream's first grid
  // run is the MICCO-naive run its features come from.
  MICCO_ASSERT(grid.front() == ReuseBounds::naive());

  ClusterConfig cluster;
  cluster.num_devices = config.num_devices;
  cluster.device_capacity_bytes = config.device_capacity_bytes;

  // Each (sample, stream) pair is one work item; a stream's grid is swept
  // serially so its later triples can reuse its earlier runs.
  const std::vector<StreamSweep> items =
      parallel::parallel_map(synths.size(), [&](std::size_t item) {
        const WorkloadStream stream = generate_synthetic(synths[item]);
        StreamSweep sweep;
        sweep.grid = sweep_bound_grid(stream, grid, cluster);
        if (item % group == 0) {
          sweep.characteristics =
              steady_state_mean(sweep.grid.first_run_characteristics);
        }
        return sweep;
      });

  TuningData data;
  data.samples.reserve(num_samples);

  // Merge in sample order: record and label layout match the historical
  // serial sweep byte for byte, and each triple's mean sums its streams in
  // stream order, as that sweep did.
  std::vector<double> grid_gflops(grid.size());
  for (std::size_t s = 0; s < num_samples; ++s) {
    const StreamSweep* streams = &items[s * group];
    for (std::size_t k = 0; k < group; ++k) {
      data.grid_runs_simulated += streams[k].grid.simulated;
      data.grid_runs_reused += streams[k].grid.reused;
      data.grid_runs_forked += streams[k].grid.forked;
      data.grid_pairs_simulated += streams[k].grid.pairs_simulated;
      data.grid_pairs += streams[k].grid.pairs;
    }
    for (std::size_t g = 0; g < grid.size(); ++g) {
      double gflops = 0.0;
      for (std::size_t k = 0; k < group; ++k) {
        gflops += streams[k].grid.gflops[g];
      }
      grid_gflops[g] = gflops / static_cast<double>(group);
    }

    TrainingSample sample;
    sample.characteristics = streams[0].characteristics;
    bool first = true;
    for (std::size_t g = 0; g < grid.size(); ++g) {
      const double gflops = grid_gflops[g];
      data.records.push_back(
          TuningRecord{sample.characteristics, grid[g], gflops});
      if (first || gflops > sample.best_gflops) sample.best_gflops = gflops;
      if (first || gflops < sample.worst_gflops) sample.worst_gflops = gflops;
      first = false;
    }

    // Label = component-wise median over every triple within 1 % of the
    // optimum. Flat regions of the landscape would otherwise hand back an
    // arbitrary member of the tie set and poison the regression target.
    std::array<std::vector<std::int64_t>, 3> near_best;
    for (std::size_t g = 0; g < grid.size(); ++g) {
      if (grid_gflops[g] >= 0.99 * sample.best_gflops) {
        for (std::size_t b = 0; b < 3; ++b) {
          near_best[b].push_back(grid[g][b]);
        }
      }
    }
    for (std::size_t b = 0; b < 3; ++b) {
      std::vector<std::int64_t>& vals = near_best[b];
      MICCO_ASSERT(!vals.empty());
      std::sort(vals.begin(), vals.end());
      sample.best_bounds[b] = vals[vals.size() / 2];
    }
    data.samples.push_back(sample);

    if ((s + 1) % 50 == 0) {
      log_info() << "tuner: " << (s + 1) << "/" << config.samples
                 << " samples swept";
    }
  }
  return data;
}

}  // namespace micco
