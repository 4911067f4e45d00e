#include "net/frame.h"

#include "common/logging.h"

namespace idebench::net {

namespace {

uint32_t ReadHeader(const char* data) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(data);
  return (static_cast<uint32_t>(u[0]) << 24) |
         (static_cast<uint32_t>(u[1]) << 16) |
         (static_cast<uint32_t>(u[2]) << 8) | static_cast<uint32_t>(u[3]);
}

}  // namespace

size_t BeginFrame(std::string* out) {
  const size_t start = out->size();
  out->append(kFrameHeaderBytes, '\0');
  return start;
}

void EndFrame(size_t frame_start, std::string* out) {
  const size_t n = out->size() - frame_start - kFrameHeaderBytes;
  // The length prefix is a u32; anything larger would silently truncate
  // into a corrupt frame.
  IDB_CHECK(n <= UINT32_MAX);
  const uint32_t len = static_cast<uint32_t>(n);
  char* header = out->data() + frame_start;
  header[0] = static_cast<char>((len >> 24) & 0xFF);
  header[1] = static_cast<char>((len >> 16) & 0xFF);
  header[2] = static_cast<char>((len >> 8) & 0xFF);
  header[3] = static_cast<char>(len & 0xFF);
}

std::string EncodeFrame(const JsonValue& message) {
  std::string out;
  const size_t start = BeginFrame(&out);
  message.DumpTo(&out);
  EndFrame(start, &out);
  return out;
}

void FrameDecoder::Feed(const char* data, size_t n) {
  if (n == 0 || failed()) return;
  // Compact lazily: only when the dead prefix dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

Result<bool> FrameDecoder::Next(JsonValue* out) {
  if (failed()) return error_;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return false;
  const uint32_t len = ReadHeader(buffer_.data() + consumed_);
  if (len == 0) {
    error_ = Status::Invalid("empty frame");
    return error_;
  }
  if (static_cast<size_t>(len) > max_frame_bytes_) {
    error_ = Status::ResourceExhausted(
        "frame payload of " + std::to_string(len) + " bytes exceeds the " +
        std::to_string(max_frame_bytes_) + "-byte cap");
    return error_;
  }
  if (avail < kFrameHeaderBytes + static_cast<size_t>(len)) return false;
  const std::string payload =
      buffer_.substr(consumed_ + kFrameHeaderBytes, len);
  consumed_ += kFrameHeaderBytes + len;
  auto parsed = JsonValue::Parse(payload);
  if (!parsed.ok()) {
    error_ = Status::Invalid("frame payload is not valid JSON: " +
                             parsed.status().message());
    return error_;
  }
  *out = std::move(parsed).MoveValueUnsafe();
  return true;
}

}  // namespace idebench::net
