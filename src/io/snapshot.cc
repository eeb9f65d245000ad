#include "src/io/snapshot.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "src/common/arena.h"
#include "src/common/metrics.h"
#include "src/core/engine_image.h"

namespace aeetes {

namespace {

/// Reads the 8-byte (magic, version) prologue of a snapshot file.
Status SniffHeader(const std::string& path, uint32_t* magic,
                   uint32_t* version) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path + " for read");
  }
  uint32_t header[2] = {0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (static_cast<size_t>(in.gcount()) != sizeof(header)) {
    return Status::IOError("not an Aeetes snapshot (too short): " + path);
  }
  *magic = header[0];
  *version = header[1];
  return Status::OK();
}

uint64_t FileSizeOf(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();
  return (in && size > 0) ? static_cast<uint64_t>(size) : 0;
}

}  // namespace

Status SaveSnapshot(const Aeetes& aeetes, const std::string& path) {
  const Span<uint8_t> bytes = aeetes.image().bytes();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open " + path + " for write");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Status SaveVersionedSnapshot(const Aeetes& aeetes, const std::string& dir,
                             const std::string& name, uint64_t version,
                             std::string* out_path) {
  const std::string path =
      dir + "/" + name + ".v" + std::to_string(version) + ".snap";
  const std::string tmp = path + ".tmp";
  AEETES_RETURN_IF_ERROR(SaveSnapshot(aeetes, tmp));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed: " + tmp + " -> " + path);
  }
  if (out_path != nullptr) *out_path = path;
  return Status::OK();
}

Result<std::unique_ptr<Aeetes>> LoadSnapshot(const std::string& path,
                                             AeetesOptions options) {
  uint32_t magic = 0;
  uint32_t version = 0;
  AEETES_RETURN_IF_ERROR(SniffHeader(path, &magic, &version));
  if (magic != kImageMagic) {
    return Status::InvalidArgument("not an Aeetes snapshot: " + path);
  }

  if (version != kImageVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version) + ": " + path);
  }

  double load_ms = 0.0;
  std::unique_ptr<Aeetes> engine;
  {
    ScopedTimer timer(nullptr, &load_ms);
    AEETES_ASSIGN_OR_RETURN(std::unique_ptr<EngineImage> image,
                            EngineImage::FromFile(path));
    AEETES_ASSIGN_OR_RETURN(engine,
                            Aeetes::FromImage(std::move(image), options));
  }
  engine->PublishSnapshotMetrics(load_ms * 1e3, FileSizeOf(path));
  return engine;
}

}  // namespace aeetes
