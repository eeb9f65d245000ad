#ifndef AEETES_INDEX_CLUSTERED_INDEX_H_
#define AEETES_INDEX_CLUSTERED_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/arena.h"
#include "src/common/metrics.h"
#include "src/common/span.h"
#include "src/common/status.h"
#include "src/synonym/derived_dictionary.h"
#include "src/text/token.h"

namespace aeetes {

/// One posting: a derived entity containing the token, plus the token's
/// position in the entity's ordered set (0-based; used for the prefix
/// filter at query time, so the index supports any threshold).
struct PostingEntry {
  DerivedId derived = 0;
  uint32_t pos = 0;
};

/// Contiguous run of postings sharing one origin entity (the inner cluster
/// level L_e^l[t] of Section 3.2).
struct OriginGroup {
  EntityId origin = 0;
  uint32_t begin = 0;  // into entries()
  uint32_t end = 0;
};

/// Contiguous run of origin groups sharing one ordered-set size (the outer
/// cluster level L_l[t]).
struct LengthGroup {
  uint32_t length = 0;
  uint32_t begin = 0;  // into origin_groups()
  uint32_t end = 0;
};

/// The clustered inverted index of Section 3: for each token, postings are
/// grouped first by derived-entity set size (enabling batch skips under the
/// length filter) and then by origin entity (enabling batch skips once an
/// origin is already a candidate). Immutable after Build; all four arrays
/// are read through Span views over one arena — a private heap arena for
/// the standalone Build path, or the enclosing engine image (heap-built or
/// mmap-loaded, identical wiring).
class ClusteredIndex {
 public:
  /// Length groups of token `t`'s posting list (empty range for tokens
  /// without postings, including a document's unknown tokens).
  struct ListRange {
    uint32_t begin = 0;  // into length_groups()
    uint32_t end = 0;
    [[nodiscard]] bool empty() const { return begin == end; }
  };

  /// The four flattened arrays, before they land in an arena.
  struct Parts {
    std::vector<ListRange> lists;  // indexed by TokenId
    std::vector<LengthGroup> length_groups;
    std::vector<OriginGroup> origin_groups;
    std::vector<PostingEntry> entries;
  };

  /// Builds the posting arrays from offline parts (the EngineImage::Pack
  /// path — runs before any dictionary is wired).
  static Parts BuildParts(const DerivedDictParts& parts);

  /// Same construction, reading a wired dictionary (the standalone path).
  static Parts BuildParts(const DerivedDictionary& dd);

  /// Appends the four img::kIndex* sections.
  static void AppendSections(const Parts& parts, ImageBuilder& builder);

  /// Wires an index over `view`'s sections (zero-copy; the image must
  /// outlive the result). Validates the full nesting chain — list ranges
  /// into length groups into origin groups into entries — plus id ranges,
  /// so release builds can serve hostile snapshots safely. `lists` may be
  /// shorter than `token_count` (an older image's dictionary may carry
  /// document tokens interned after the index was built; they have no
  /// postings).
  static Result<std::unique_ptr<ClusteredIndex>> WireFromImage(
      const ImageView& view, size_t num_origins, size_t num_derived,
      size_t token_count);

  /// Standalone convenience: BuildParts + a private arena. `dd` must
  /// outlive the index only for the duration of this call; the index holds
  /// its own backing.
  static std::unique_ptr<ClusteredIndex> Build(const DerivedDictionary& dd);

  [[nodiscard]] ListRange list(TokenId t) const {
    if (t >= lists_.size()) return {};
    return lists_[t];
  }

  [[nodiscard]] Span<PostingEntry> entries() const { return entries_; }
  [[nodiscard]] Span<OriginGroup> origin_groups() const {
    return origin_groups_;
  }
  [[nodiscard]] Span<LengthGroup> length_groups() const {
    return length_groups_;
  }

  /// Total postings across all tokens.
  [[nodiscard]] size_t num_entries() const { return entries_.size(); }

  /// Approximate resident size in bytes (Section 6.3 reports index sizes).
  [[nodiscard]] size_t MemoryBytes() const;

  /// Registers and sets the `index.*` size gauges (entries, group counts,
  /// resident bytes) on `registry`. Call once per registry — metric names
  /// are unique and re-registration CHECK-aborts.
  void PublishMetrics(MetricsRegistry& registry) const;

 private:
  ClusteredIndex() = default;

  AlignedBuffer backing_;  // private arena; empty when EngineImage owns it

  Span<ListRange> lists_;  // indexed by TokenId
  Span<LengthGroup> length_groups_;
  Span<OriginGroup> origin_groups_;
  Span<PostingEntry> entries_;
};

}  // namespace aeetes

#endif  // AEETES_INDEX_CLUSTERED_INDEX_H_
