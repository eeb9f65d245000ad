#ifndef AEETES_SERVER_COLLECTION_MANAGER_H_
#define AEETES_SERVER_COLLECTION_MANAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/telemetry.h"
#include "src/common/thread_annotations.h"
#include "src/core/aeetes.h"
#include "src/core/delta_layer.h"
#include "src/runtime/parallel_extractor.h"

namespace aeetes {
namespace server {

/// One live, immutable-once-published engine serving a collection. The
/// extractor references the engine, so member order matters: `aeetes` is
/// declared first and therefore destroyed last.
///
/// Published instances are shared_ptr-held; a request that acquired one
/// keeps the whole engine (image, index, extractor pool) alive until it
/// finishes, even if the collection is swapped or deleted meanwhile —
/// that refcount IS the retirement protocol. After publication the engine
/// is read-only except for Aeetes' designated-mutable member (metrics).
struct ServingEngine {
  std::string name;
  uint64_t version = 1;  // bumps on every swap / compaction
  std::string source;    // "build", "compact" or the snapshot path
  std::unique_ptr<Aeetes> aeetes;
  std::unique_ptr<ParallelExtractor> extractor;
  /// The live mutable overlay attached to `aeetes` (DESIGN.md §15).
  /// Internally synchronized, so "read-only after publication" does not
  /// apply to it — upserts/removals mutate it while extractions run.
  std::shared_ptr<DeltaLayer> delta;
};

/// Named dictionaries as first-class collections (ISSUE 8 tentpole #1).
/// All verbs are safe to call concurrently; engine construction (offline
/// build or snapshot load — the expensive part) happens outside the lock,
/// so a slow `create` never stalls the data plane.
class CollectionManager {
 public:
  struct Options {
    /// Engine construction knobs shared by every collection.
    AeetesOptions engine;
    /// Per-collection extractor pool configuration.
    ParallelExtractorOptions extractor;
    /// Enable the flight recorder on every engine as it is published
    /// (must happen before extraction traffic; see aeetes.h).
    bool enable_flight_recorder = false;
    FlightRecorderOptions flight_recorder;
    /// Bound on simultaneously live collections.
    size_t max_collections = 64;
    /// Directory where compactions persist versioned snapshots
    /// ("<name>.v<version>.snap"), giving operators rollback points.
    /// Empty disables persistence (compactions stay in-memory only).
    std::string snapshot_dir;
  };

  /// The optional metric handles are kept current by the manager:
  /// `active_collections` equals the number of live collections,
  /// `delta_entities` the total live delta entities across collections
  /// (`collection.delta_entities`), and `compactions` counts completed
  /// compaction swaps (`collection.compactions`).
  explicit CollectionManager(Options options,
                             Gauge* active_collections = nullptr,
                             Gauge* delta_entities = nullptr,
                             Counter* compactions = nullptr)
      : options_(std::move(options)),
        active_collections_(active_collections),
        delta_entities_(delta_entities),
        compactions_(compactions) {}

  /// Joins the background compactor (waiting out an in-flight compaction).
  ~CollectionManager();

  /// Offline-builds a new collection from entity / "lhs <=> rhs" rule
  /// lines. AlreadyExists when the name is taken.
  Status Create(std::string_view name,
                const std::vector<std::string>& entities,
                const std::vector<std::string>& rules) AEETES_EXCLUDES(mu_);

  /// Publishes a new collection from a snapshot file (v2 files mmap —
  /// near-instant cold start). AlreadyExists when the name is taken.
  Status Load(std::string_view name, const std::string& path)
      AEETES_EXCLUDES(mu_);

  /// Atomically replaces an existing collection's engine with one loaded
  /// from `path`. In-flight requests holding the old engine finish on it;
  /// the old image is destroyed when the last holder drops (refcounted
  /// retirement). NotFound when the collection does not exist.
  Status Swap(std::string_view name, const std::string& path)
      AEETES_EXCLUDES(mu_);

  /// Unpublishes a collection. In-flight holders finish as with Swap.
  Status Delete(std::string_view name) AEETES_EXCLUDES(mu_);

  /// Live-updates a collection through its delta overlay: inserted /
  /// replaced entities become extractable on the very next request, with
  /// results exactly matching a full rebuild (DESIGN.md §15). Returns the
  /// number of entities whose state changed. NotFound when absent.
  Result<size_t> UpsertEntities(std::string_view name,
                                const std::vector<std::string>& entities)
      AEETES_EXCLUDES(mu_);

  /// Live-removes entities (tombstones frozen origins, drops delta
  /// entities). Unknown texts are ignored; returns the number removed.
  Result<size_t> RemoveEntities(std::string_view name,
                                const std::vector<std::string>& entities)
      AEETES_EXCLUDES(mu_);

  /// Schedules a background compaction: rebuild a fresh frozen image from
  /// frozen+delta, persist it as a versioned snapshot (when snapshot_dir
  /// is set) and atomically swap it in with an empty successor overlay.
  /// Mutations racing with the rebuild are replayed onto the successor at
  /// cutover, so none are lost. Returns the version the compacted engine
  /// will publish as; poll `list` for the bump. NotFound when absent.
  Result<uint64_t> Compact(std::string_view name) AEETES_EXCLUDES(mu_);

  /// Snapshot of the engine currently published under `name`; NotFound
  /// when absent. The caller's shared_ptr pins the engine.
  Result<std::shared_ptr<const ServingEngine>> Acquire(
      std::string_view name) const AEETES_EXCLUDES(mu_);

  struct Info {
    std::string name;
    uint64_t version = 0;
    std::string source;
    size_t delta_entities = 0;
    size_t tombstones = 0;
  };
  /// All live collections, sorted by name.
  std::vector<Info> List() const AEETES_EXCLUDES(mu_);

  size_t size() const AEETES_EXCLUDES(mu_);

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  /// Wires an engine + extractor + delta overlay ready for publication.
  /// `rule_lines` seeds the overlay (empty for snapshot-loaded images).
  Result<std::shared_ptr<ServingEngine>> Wire(
      std::string_view name, std::string source,
      std::unique_ptr<Aeetes> aeetes, std::vector<std::string> rule_lines);

  void PublishGauge() AEETES_REQUIRES(mu_);
  /// Recomputes the aggregate delta-entity gauge over live collections.
  void PublishDeltaGauge() AEETES_REQUIRES(mu_);

  /// Starts the compactor thread if not yet running and enqueues `name`.
  void EnqueueCompaction(std::string name) AEETES_EXCLUDES(compact_mu_);
  void CompactorLoop() AEETES_EXCLUDES(compact_mu_, mu_);
  /// One compaction: rebuild outside the lock, cut over under it.
  Status CompactOne(const std::string& name) AEETES_EXCLUDES(mu_);

  Options options_;
  Gauge* active_collections_;
  Gauge* delta_entities_;
  Counter* compactions_;
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<ServingEngine>, std::less<>>
      collections_ AEETES_GUARDED_BY(mu_);

  Mutex compact_mu_;
  CondVar compact_cv_;
  std::deque<std::string> compact_queue_ AEETES_GUARDED_BY(compact_mu_);
  bool compactor_started_ AEETES_GUARDED_BY(compact_mu_) = false;
  bool stopping_ AEETES_GUARDED_BY(compact_mu_) = false;
  std::thread compactor_;
};

}  // namespace server
}  // namespace aeetes

#endif  // AEETES_SERVER_COLLECTION_MANAGER_H_
