// Fuzz target: the server's network-facing byte surface — framed-TCP
// decode (FrameReader), JSON parse, and request validation — everything
// that touches bytes an arbitrary peer controls before any verb runs.
//
// The contract under test (protocol.h): hostile input yields kNeedMore,
// kBad, or a Status — never a crash, hang, or unbounded allocation. A
// frame header may promise up to 4 GiB; the reader must reject anything
// over its configured cap without buffering toward it. The input is fed
// twice, once whole and once in small slices, so resumption state
// (partial headers, partial payloads, lazy compaction) is exercised on
// every run.
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/server/json.h"
#include "src/server/protocol.h"

namespace {

using aeetes::server::FrameReader;

/// Pushes every decoded payload through the same parse pipeline the
/// server's HandleFrame uses.
void ConsumeFrames(FrameReader& reader) {
  std::string payload;
  while (reader.Poll(&payload) == FrameReader::Next::kFrame) {
    auto request = aeetes::server::ParseRequest(payload);
    if (request.ok()) {
      // Validated identifiers must honour the protocol bounds — a
      // violation here means ParseRequest let hostile bytes through.
      if (request->tenant.size() > aeetes::server::kMaxTenantBytes ||
          request->collection.size() > aeetes::server::kMaxCollectionBytes) {
        __builtin_trap();
      }
      // The filter strategy is the engine's, never a request's: a payload
      // naming one must be rejected (seed removed_strategy_field.bin).
      auto root = aeetes::server::ParseJson(payload);
      if (root.ok() && root->Find("strategy") != nullptr) __builtin_trap();
    } else {
      (void)aeetes::server::ErrorResponse(request.status());
    }
  }
}

void FuzzWholeInput(const uint8_t* data, size_t size) {
  // Small cap so the fuzzer can reach the oversized-length rejection with
  // tiny inputs.
  FrameReader reader(/*max_frame_bytes=*/1 << 16);
  reader.Feed(reinterpret_cast<const char*>(data), size);
  ConsumeFrames(reader);
}

void FuzzSlicedInput(const uint8_t* data, size_t size) {
  FrameReader reader(/*max_frame_bytes=*/1 << 16);
  // Slice width derived from the input so coverage feedback can vary it.
  const size_t step = size == 0 ? 1 : 1 + (data[0] & 7u);
  for (size_t off = 0; off < size; off += step) {
    const size_t n = size - off < step ? size - off : step;
    reader.Feed(reinterpret_cast<const char*>(data) + off, n);
    ConsumeFrames(reader);
    if (reader.bad()) break;  // poisoned streams stay poisoned
  }
}

void FuzzBareJson(const uint8_t* data, size_t size) {
  // The JSON parser also sees bytes with no framing at all (tests, tools);
  // tight limits keep adversarial nesting cheap under the fuzzer.
  aeetes::server::JsonLimits limits;
  limits.max_depth = 16;
  limits.max_values = 1 << 12;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  auto value = aeetes::server::ParseJson(text, limits);
  (void)value.ok();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzWholeInput(data, size);
  FuzzSlicedInput(data, size);
  FuzzBareJson(data, size);
  return 0;
}
