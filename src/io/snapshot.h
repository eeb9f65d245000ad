#ifndef AEETES_IO_SNAPSHOT_H_
#define AEETES_IO_SNAPSHOT_H_

#include <memory>
#include <string>

#include "src/core/aeetes.h"

namespace aeetes {

/// Persists a built extractor's offline state to a single snapshot file in
/// the v2 "engine image" format (DESIGN.md §11): the arena bytes — token
/// dictionary, origin/derived entities, size-sorted index, rank arena and
/// clustered inverted index — written verbatim, with a section table and
/// per-section CRC32c. Loading mmaps the file and wires views over it:
/// no index rebuild, no per-entity allocation.
Status SaveSnapshot(const Aeetes& aeetes, const std::string& path);

/// Writes a *versioned* v2 snapshot "<dir>/<name>.v<version>.snap",
/// atomically (temp file + rename, so readers never observe a torn file)
/// and without disturbing earlier versions — each compaction leaves the
/// previous images behind as rollback points (load or `swap` any older
/// version to roll back; DESIGN.md §15). On success `out_path`, when
/// non-null, receives the final path.
Status SaveVersionedSnapshot(const Aeetes& aeetes, const std::string& dir,
                             const std::string& name, uint64_t version,
                             std::string* out_path = nullptr);

/// Loads a snapshot written by either SaveSnapshot variant: the v2 image is
/// mmapped and wired zero-copy. Any other version stamped in the first 8
/// bytes (including the retired v1 record format) fails with
/// InvalidArgument naming the version. `options` supplies the runtime
/// configuration (strategy, metric, weighted, ...) — the stored state is
/// metric-independent, so any options work with any snapshot. Publishes
/// `snapshot.{load_us,bytes,mmap}` gauges on the returned instance.
/// Corrupt, truncated or bit-flipped input yields a Status, never a
/// crash.
Result<std::unique_ptr<Aeetes>> LoadSnapshot(const std::string& path,
                                             AeetesOptions options = {});

}  // namespace aeetes

#endif  // AEETES_IO_SNAPSHOT_H_
