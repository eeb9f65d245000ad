#ifndef AEETES_SERVER_PROTOCOL_H_
#define AEETES_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/server/json.h"

namespace aeetes {
namespace server {

/// Wire format (DESIGN.md §14): a stream of frames, each a 4-byte
/// little-endian payload length followed by that many bytes of UTF-8 JSON.
/// Both directions use the same framing; one request frame yields exactly
/// one response frame, in order. The length field never includes itself.
constexpr size_t kFrameHeaderBytes = 4;

/// Default and hard upper bound on a single frame's payload. A hostile
/// length prefix beyond the reader's limit poisons the stream (the only
/// safe response — the byte stream has no resync point) and the server
/// closes the connection.
constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

/// Upper bound on a tenant id; longer ids are a protocol error (they would
/// otherwise let one client grow the rate-limiter table without bound).
constexpr size_t kMaxTenantBytes = 128;

/// Upper bound on a collection name (same shape as tenant ids).
constexpr size_t kMaxCollectionBytes = 128;

/// Appends one encoded frame (header + payload) to `out`.
void EncodeFrame(std::string_view payload, std::string* out);

/// Incremental frame decoder for one connection's byte stream. Feed bytes
/// as they arrive, then Poll until it reports kNeedMore. Once a hostile
/// length poisons the stream the reader stays bad (every Poll reports
/// kBad) — callers drop the connection.
class FrameReader {
 public:
  explicit FrameReader(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(const void* data, size_t size);

  enum class Next {
    kFrame,     // *payload holds one complete payload
    kNeedMore,  // no complete frame buffered yet
    kBad,       // stream poisoned (oversized length); close the connection
  };
  Next Poll(std::string* payload);

  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] size_t buffered() const { return buffer_.size() - consumed_; }
  [[nodiscard]] bool bad() const { return bad_; }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out
  bool bad_ = false;
};

/// Protocol verbs. `kExtract` is the data plane; the rest are admin /
/// introspection.
enum class Verb {
  kExtract,
  kCreate,
  kLoad,
  kSwap,
  kDelete,
  kUpsertEntities,
  kRemoveEntities,
  kCompact,
  kList,
  kHealthz,
  kMetrics,
  kStats,
};

/// One parsed request. Only the fields relevant to the verb are set.
struct Request {
  Verb verb = Verb::kHealthz;
  std::string collection;
  std::string tenant = "default";
  double tau = 0.8;
  std::vector<std::string> docs;      // extract
  std::vector<std::string> entities;  // create / upsert / remove
  std::vector<std::string> rules;     // create
  std::string path;                   // load / swap
};

/// Parses and validates one request payload. Errors are InvalidArgument
/// with a message safe to echo back to the client.
Result<Request> ParseRequest(std::string_view payload);

/// Error codes carried in {"ok":false,"code":...} responses; HTTP-shaped
/// so callers can reuse familiar handling.
enum ErrorCode : int {
  kBadRequest = 400,
  kNotFound = 404,
  kConflict = 409,
  kRateLimited = 429,
  kInternalError = 500,
  kDraining = 503,
};

/// Maps a Status to the protocol error code.
int StatusToErrorCode(const Status& status);

/// {"ok":false,"code":<code>,"error":"<message>"}.
std::string ErrorResponse(int code, std::string_view message);
std::string ErrorResponse(const Status& status);

}  // namespace server
}  // namespace aeetes

#endif  // AEETES_SERVER_PROTOCOL_H_
