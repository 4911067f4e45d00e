#ifndef IDEBENCH_NET_FRAME_H_
#define IDEBENCH_NET_FRAME_H_

/// \file frame.h
/// Length-prefixed JSON frame codec — the wire format of the serving
/// front-end (see README "Network serving").
///
/// A frame is a 4-byte big-endian unsigned payload length followed by
/// exactly that many bytes of UTF-8 JSON encoding one message object.
/// The prefix makes the stream self-delimiting over TCP (JSON itself is
/// not), and the decoder enforces a hard payload-size cap *before*
/// buffering, so a hostile or corrupt peer can never make the server
/// allocate an unbounded frame.
///
/// Decoder error contract (enforced by tests/net_frame_test.cc, run
/// under ASan+UBSan in CI): truncated input is never an error — the
/// decoder just waits for more bytes; an oversized length prefix, a
/// zero-length frame, or a payload that fails to parse as a single JSON
/// document returns a `Status` error and poisons the decoder (a framing
/// violation leaves the byte stream unsynchronized, so the only safe
/// reaction is to drop the connection).  Nothing in the codec throws,
/// crashes, or leaks on malformed input.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/json.h"
#include "common/result.h"

namespace idebench::net {

/// Frame header size: 4-byte big-endian payload length.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Default payload cap.  Progressive updates carry whole bin tables, but
/// even a 2-D 25x25-bin result with margins is a few tens of KiB; 4 MiB
/// leaves two orders of magnitude of headroom.
inline constexpr size_t kDefaultMaxFrameBytes = 4 * 1024 * 1024;

/// Encodes `message` as one frame (compact JSON payload).
std::string EncodeFrame(const JsonValue& message);

/// Frame writers that serialize in place: BeginFrame appends a
/// placeholder header to `*out` and returns the frame's offset; the
/// caller appends the payload; EndFrame writes the payload length into
/// that header.
size_t BeginFrame(std::string* out);
void EndFrame(size_t frame_start, std::string* out);

/// Incremental frame parser over a byte stream.  Feed bytes as they
/// arrive; `Next` yields complete messages in order.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw bytes from the stream.  Cheap; parsing happens in Next.
  void Feed(const char* data, size_t n);
  void Feed(const std::string& bytes) { Feed(bytes.data(), bytes.size()); }

  /// Tries to decode the next complete frame.  Returns true and fills
  /// `*out` when one was available; false when more bytes are needed.
  /// Returns a non-OK Status on a framing violation (oversized or empty
  /// frame, payload that is not one valid JSON document); after an error
  /// the decoder is poisoned and every further call returns the same
  /// error — the caller must drop the connection.
  Result<bool> Next(JsonValue* out);

  /// Bytes buffered but not yet consumed by Next.
  size_t buffered() const { return buffer_.size() - consumed_; }

  /// True once a framing violation was seen.
  bool failed() const { return !error_.ok(); }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already decoded
  Status error_ = Status::OK();
};

}  // namespace idebench::net

#endif  // IDEBENCH_NET_FRAME_H_
