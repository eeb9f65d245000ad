#include "src/index/clustered_index.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "src/common/logging.h"

namespace aeetes {

namespace {

// Collects (token, length, origin, derived, pos) tuples, sorts them so that
// postings of one token form contiguous length/origin clusters, then emits
// the nested group arrays. Templated over the derived-entity accessors so
// the same construction serves both the pre-wiring pack path (raw parts)
// and the standalone path (a wired dictionary).
template <typename GetSet, typename GetOrigin>
ClusteredIndex::Parts BuildRows(size_t num_derived, size_t token_count,
                                GetSet get_set, GetOrigin get_origin) {
  struct Row {
    TokenId token;
    uint32_t length;
    EntityId origin;
    DerivedId derived;
    uint32_t pos;
  };
  std::vector<Row> rows;
  for (DerivedId d = 0; d < num_derived; ++d) {
    const Span<TokenId> set = get_set(d);
    const uint32_t len = static_cast<uint32_t>(set.size());
    const EntityId origin = get_origin(d);
    for (uint32_t pos = 0; pos < set.size(); ++pos) {
      rows.push_back(Row{set[pos], len, origin, d, pos});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.token, a.length, a.origin, a.derived, a.pos) <
           std::tie(b.token, b.length, b.origin, b.derived, b.pos);
  });

  ClusteredIndex::Parts parts;
  parts.lists.assign(token_count, ClusteredIndex::ListRange{});
  parts.entries.reserve(rows.size());

  size_t i = 0;
  while (i < rows.size()) {
    const TokenId token = rows[i].token;
    const uint32_t lg_begin = static_cast<uint32_t>(parts.length_groups.size());
    while (i < rows.size() && rows[i].token == token) {
      const uint32_t length = rows[i].length;
      const uint32_t og_begin =
          static_cast<uint32_t>(parts.origin_groups.size());
      while (i < rows.size() && rows[i].token == token &&
             rows[i].length == length) {
        const EntityId origin = rows[i].origin;
        const uint32_t e_begin = static_cast<uint32_t>(parts.entries.size());
        while (i < rows.size() && rows[i].token == token &&
               rows[i].length == length && rows[i].origin == origin) {
          parts.entries.push_back(PostingEntry{rows[i].derived, rows[i].pos});
          ++i;
        }
        parts.origin_groups.push_back(OriginGroup{
            origin, e_begin, static_cast<uint32_t>(parts.entries.size())});
      }
      parts.length_groups.push_back(
          LengthGroup{length, og_begin,
                      static_cast<uint32_t>(parts.origin_groups.size())});
    }
    parts.lists[token] = ClusteredIndex::ListRange{
        lg_begin, static_cast<uint32_t>(parts.length_groups.size())};
  }
  return parts;
}

}  // namespace

ClusteredIndex::Parts ClusteredIndex::BuildParts(const DerivedDictParts& dd) {
  return BuildRows(
      dd.derived.size(), dd.dict->size(),
      [&dd](DerivedId d) { return Span<TokenId>(dd.derived[d].ordered_set); },
      [&dd](DerivedId d) { return dd.derived[d].origin; });
}

ClusteredIndex::Parts ClusteredIndex::BuildParts(const DerivedDictionary& dd) {
  return BuildRows(
      dd.num_derived(), dd.token_dict().size(),
      [&dd](DerivedId d) { return dd.ordered_set(d); },
      [&dd](DerivedId d) { return dd.origin_of(d); });
}

void ClusteredIndex::AppendSections(const Parts& parts,
                                    ImageBuilder& builder) {
  builder.AddVector(img::kIndexLists, parts.lists);
  builder.AddVector(img::kIndexLengthGroups, parts.length_groups);
  builder.AddVector(img::kIndexOriginGroups, parts.origin_groups);
  builder.AddVector(img::kIndexEntries, parts.entries);
}

Result<std::unique_ptr<ClusteredIndex>> ClusteredIndex::WireFromImage(
    const ImageView& view, size_t num_origins, size_t num_derived,
    size_t token_count) {
  auto idx = std::unique_ptr<ClusteredIndex>(new ClusteredIndex());
  AEETES_ASSIGN_OR_RETURN(idx->lists_, view.array<ListRange>(img::kIndexLists));
  AEETES_ASSIGN_OR_RETURN(idx->length_groups_,
                          view.array<LengthGroup>(img::kIndexLengthGroups));
  AEETES_ASSIGN_OR_RETURN(idx->origin_groups_,
                          view.array<OriginGroup>(img::kIndexOriginGroups));
  AEETES_ASSIGN_OR_RETURN(idx->entries_,
                          view.array<PostingEntry>(img::kIndexEntries));

  // An older image's dictionary may carry document tokens interned after
  // the index was built; those have no posting lists.
  if (idx->lists_.size() > token_count) {
    return Status::IOError("engine image: index lists exceed token count");
  }
  // Nesting chain: every level's [begin, end) must land inside the level
  // below. Candidate generation subscripts these arrays with at most
  // debug-only checks, so this is the release-build bounds firewall.
  for (const ListRange& lr : idx->lists_) {
    if (lr.begin > lr.end || lr.end > idx->length_groups_.size()) {
      return Status::IOError("engine image: index list range out of bounds");
    }
  }
  for (const LengthGroup& lg : idx->length_groups_) {
    if (lg.begin > lg.end || lg.end > idx->origin_groups_.size()) {
      return Status::IOError(
          "engine image: index length group out of bounds");
    }
  }
  for (const OriginGroup& og : idx->origin_groups_) {
    if (og.begin > og.end || og.end > idx->entries_.size()) {
      return Status::IOError(
          "engine image: index origin group out of bounds");
    }
    if (og.origin >= num_origins) {
      return Status::IOError("engine image: index origin out of range");
    }
  }
  for (const PostingEntry& entry : idx->entries_) {
    if (entry.derived >= num_derived) {
      return Status::IOError("engine image: posting id out of range");
    }
  }
  return idx;
}

std::unique_ptr<ClusteredIndex> ClusteredIndex::Build(
    const DerivedDictionary& dd) {
  ImageBuilder builder;
  AppendSections(BuildParts(dd), builder);
  // Building from an already-validated dictionary cannot produce a
  // malformed image, so failures here are programming errors.
  Result<AlignedBuffer> buffer = builder.Finish();
  AEETES_CHECK(buffer.ok()) << buffer.status().message();
  Result<ImageView> view = ImageView::Parse(buffer->bytes());
  AEETES_CHECK(view.ok()) << view.status().message();
  Result<std::unique_ptr<ClusteredIndex>> idx = WireFromImage(
      *view, dd.num_origins(), dd.num_derived(), dd.token_dict().size());
  AEETES_CHECK(idx.ok()) << idx.status().message();
  (*idx)->backing_ = std::move(*buffer);
  return std::move(*idx);
}

size_t ClusteredIndex::MemoryBytes() const {
  return lists_.size() * sizeof(ListRange) +
         length_groups_.size() * sizeof(LengthGroup) +
         origin_groups_.size() * sizeof(OriginGroup) +
         entries_.size() * sizeof(PostingEntry);
}

void ClusteredIndex::PublishMetrics(MetricsRegistry& registry) const {
  registry.RegisterGauge("index.entries", "postings across all tokens")
      .Set(static_cast<int64_t>(entries_.size()));
  registry
      .RegisterGauge("index.length_groups",
                     "outer cluster level L_l[t] groups")
      .Set(static_cast<int64_t>(length_groups_.size()));
  registry
      .RegisterGauge("index.origin_groups",
                     "inner cluster level L_e^l[t] groups")
      .Set(static_cast<int64_t>(origin_groups_.size()));
  registry.RegisterGauge("index.bytes", "approximate resident size")
      .Set(static_cast<int64_t>(MemoryBytes()));
}

}  // namespace aeetes
