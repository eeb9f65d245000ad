#include "src/server/protocol.h"

#include <cstring>

#include "src/common/metrics.h"

namespace aeetes {
namespace server {

void EncodeFrame(std::string_view payload, std::string* out) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char header[kFrameHeaderBytes];
  header[0] = static_cast<char>(len & 0xFF);
  header[1] = static_cast<char>((len >> 8) & 0xFF);
  header[2] = static_cast<char>((len >> 16) & 0xFF);
  header[3] = static_cast<char>((len >> 24) & 0xFF);
  out->append(header, kFrameHeaderBytes);
  out->append(payload.data(), payload.size());
}

void FrameReader::Feed(const void* data, size_t size) {
  if (bad_) return;
  // Compact lazily: only when the consumed prefix dominates the buffer, so
  // steady-state streaming does one copy per frame, not per Feed.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(static_cast<const char*>(data), size);
}

FrameReader::Next FrameReader::Poll(std::string* payload) {
  if (bad_) return Next::kBad;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return Next::kNeedMore;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data()) + consumed_;
  const uint32_t len = static_cast<uint32_t>(p[0]) |
                       (static_cast<uint32_t>(p[1]) << 8) |
                       (static_cast<uint32_t>(p[2]) << 16) |
                       (static_cast<uint32_t>(p[3]) << 24);
  if (len > max_frame_bytes_) {
    bad_ = true;
    return Next::kBad;
  }
  if (available - kFrameHeaderBytes < len) return Next::kNeedMore;
  payload->assign(buffer_.data() + consumed_ + kFrameHeaderBytes, len);
  consumed_ += kFrameHeaderBytes + len;
  return Next::kFrame;
}

namespace {

bool ParseVerbName(std::string_view name, Verb* out) {
  if (name == "extract") {
    *out = Verb::kExtract;
  } else if (name == "create") {
    *out = Verb::kCreate;
  } else if (name == "load") {
    *out = Verb::kLoad;
  } else if (name == "swap") {
    *out = Verb::kSwap;
  } else if (name == "delete") {
    *out = Verb::kDelete;
  } else if (name == "upsert_entities") {
    *out = Verb::kUpsertEntities;
  } else if (name == "remove_entities") {
    *out = Verb::kRemoveEntities;
  } else if (name == "compact") {
    *out = Verb::kCompact;
  } else if (name == "list") {
    *out = Verb::kList;
  } else if (name == "healthz") {
    *out = Verb::kHealthz;
  } else if (name == "metrics") {
    *out = Verb::kMetrics;
  } else if (name == "stats") {
    *out = Verb::kStats;
  } else {
    return false;
  }
  return true;
}

/// A well-formed identifier: nonempty, bounded, [A-Za-z0-9._-] only (no
/// path separators, so collection names can never escape into paths).
Status CheckIdentifier(const std::string& value, size_t max_bytes,
                       const char* what) {
  if (value.empty()) {
    return Status::InvalidArgument(std::string(what) + " must be nonempty");
  }
  if (value.size() > max_bytes) {
    return Status::InvalidArgument(std::string(what) + " too long (" +
                                   std::to_string(value.size()) + " > " +
                                   std::to_string(max_bytes) + " bytes)");
  }
  for (const char c : value) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) {
      return Status::InvalidArgument(std::string(what) +
                                     " contains a forbidden character");
    }
  }
  return Status::OK();
}

Status ReadStringArray(const JsonValue& node, const char* what,
                       std::vector<std::string>* out) {
  if (!node.is_array()) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be an array of strings");
  }
  out->reserve(node.size());
  for (size_t i = 0; i < node.size(); ++i) {
    if (!node.at(i).is_string()) {
      return Status::InvalidArgument(std::string(what) +
                                     " must be an array of strings");
    }
    out->push_back(node.at(i).AsString());
  }
  return Status::OK();
}

}  // namespace

Result<Request> ParseRequest(std::string_view payload) {
  AEETES_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(payload));
  if (!root.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request req;
  const JsonValue* verb = root.Find("verb");
  if (verb == nullptr || !verb->is_string()) {
    return Status::InvalidArgument("missing string field 'verb'");
  }
  if (!ParseVerbName(verb->AsString(), &req.verb)) {
    return Status::InvalidArgument("unknown verb '" + verb->AsString() + "'");
  }

  if (const JsonValue* tenant = root.Find("tenant"); tenant != nullptr) {
    if (!tenant->is_string()) {
      return Status::InvalidArgument("'tenant' must be a string");
    }
    req.tenant = tenant->AsString();
    AEETES_RETURN_IF_ERROR(
        CheckIdentifier(req.tenant, kMaxTenantBytes, "tenant"));
  }

  const bool needs_collection =
      req.verb == Verb::kExtract || req.verb == Verb::kCreate ||
      req.verb == Verb::kLoad || req.verb == Verb::kSwap ||
      req.verb == Verb::kDelete || req.verb == Verb::kUpsertEntities ||
      req.verb == Verb::kRemoveEntities || req.verb == Verb::kCompact;
  if (const JsonValue* coll = root.Find("collection"); coll != nullptr) {
    if (!coll->is_string()) {
      return Status::InvalidArgument("'collection' must be a string");
    }
    req.collection = coll->AsString();
    AEETES_RETURN_IF_ERROR(
        CheckIdentifier(req.collection, kMaxCollectionBytes, "collection"));
  } else if (needs_collection) {
    return Status::InvalidArgument("missing string field 'collection'");
  }

  if (const JsonValue* tau = root.Find("tau"); tau != nullptr) {
    if (!tau->is_number()) {
      return Status::InvalidArgument("'tau' must be a number");
    }
    req.tau = tau->AsDouble();
    if (!(req.tau > 0.0) || req.tau > 1.0) {
      return Status::InvalidArgument("'tau' must be in (0, 1]");
    }
  }

  // The filter strategy is a property of the engine (AeetesOptions), not
  // of a request: a client that believes it picks one hears otherwise.
  if (root.Find("strategy") != nullptr) {
    return Status::InvalidArgument(
        "'strategy' is not a request field; the collection's engine sets it");
  }

  switch (req.verb) {
    case Verb::kExtract: {
      const JsonValue* docs = root.Find("docs");
      if (docs == nullptr) {
        return Status::InvalidArgument("extract requires 'docs'");
      }
      AEETES_RETURN_IF_ERROR(ReadStringArray(*docs, "'docs'", &req.docs));
      break;
    }
    case Verb::kCreate: {
      const JsonValue* entities = root.Find("entities");
      if (entities == nullptr) {
        return Status::InvalidArgument("create requires 'entities'");
      }
      AEETES_RETURN_IF_ERROR(
          ReadStringArray(*entities, "'entities'", &req.entities));
      if (const JsonValue* rules = root.Find("rules"); rules != nullptr) {
        AEETES_RETURN_IF_ERROR(ReadStringArray(*rules, "'rules'", &req.rules));
      }
      break;
    }
    case Verb::kUpsertEntities:
    case Verb::kRemoveEntities: {
      const JsonValue* entities = root.Find("entities");
      if (entities == nullptr) {
        return Status::InvalidArgument(
            "upsert_entities/remove_entities require 'entities'");
      }
      AEETES_RETURN_IF_ERROR(
          ReadStringArray(*entities, "'entities'", &req.entities));
      if (req.entities.empty()) {
        return Status::InvalidArgument("'entities' must be nonempty");
      }
      break;
    }
    case Verb::kLoad:
    case Verb::kSwap: {
      const JsonValue* path = root.Find("path");
      if (path == nullptr || !path->is_string() || path->AsString().empty()) {
        return Status::InvalidArgument(
            "load/swap require a nonempty string 'path'");
      }
      req.path = path->AsString();
      break;
    }
    default:
      break;
  }
  return req;
}

int StatusToErrorCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return kBadRequest;
    case StatusCode::kNotFound:
      return kNotFound;
    case StatusCode::kAlreadyExists:
      return kConflict;
    case StatusCode::kResourceExhausted:
      return kRateLimited;
    case StatusCode::kFailedPrecondition:
      return kDraining;
    default:
      return kInternalError;
  }
}

std::string ErrorResponse(int code, std::string_view message) {
  std::string out = "{\"ok\":false,\"code\":";
  out += std::to_string(code);
  out += ",\"error\":";
  jsonio::AppendString(&out, message);
  out += "}";
  return out;
}

std::string ErrorResponse(const Status& status) {
  return ErrorResponse(StatusToErrorCode(status), status.ToString());
}

}  // namespace server
}  // namespace aeetes
