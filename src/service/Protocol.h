//===--- Protocol.h - Length-prefixed JSON wire protocol --------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's wire format: each message is a 4-byte big-endian length
/// followed by that many bytes of UTF-8 JSON. Requests are flat objects
/// with an "op" member:
///
///   {"op":"ping"}
///   {"op":"analyze","unit":"U","source":"...","k":3,"jobs":1,
///    "force":false,"run":false,"mode":"inferred",
///    "injectYields":false,"yieldSeed":1}
///   {"op":"check","unit":"U","source":"...","k":3,"jobs":1,
///    "force":false,"elideNeverParallel":false}
///                                  (analyze + concurrency checker; the
///                                   response adds "check" — the
///                                   lockin-check JSON report as an
///                                   object — and "checkCached", true
///                                   when the unchanged-module cache
///                                   served the report)
///   {"op":"invalidate"}            (whole cache)
///   {"op":"invalidate","unit":"U"} (one unit)
///   {"op":"stats"}
///   {"op":"metrics"}               (live registry: Prometheus text +
///                                   counter/histogram summaries)
///   {"op":"flightrecord"}          (last-N completed-request summaries;
///                                   "debug/flightrecord" is an alias)
///   {"op":"shutdown"}
///
/// Responses always carry "ok"; failures add "error". See DESIGN.md
/// "Service & incremental analysis" for the full response schemas.
///
/// Framing helpers below loop over partial reads/writes and retry EINTR;
/// oversized frames are rejected before any allocation so a malformed
/// peer cannot balloon the daemon. The blocking helpers serve the client
/// and the tests; the daemon's event loops use the incremental
/// FrameAssembler, which accepts bytes as they arrive (down to one at a
/// time) and never parks a thread waiting for the rest of a frame.
///
/// Overload responses add "retryAfterMs" — the daemon's estimate of when
/// capacity frees up — and deadline-shed responses add "shed":true next
/// to the usual "timedOut":true (see Server.h for the shedding policy).
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_SERVICE_PROTOCOL_H
#define LOCKIN_SERVICE_PROTOCOL_H

#include "service/Json.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lockin {
namespace service {

/// Hard cap on one frame (source files are the large payloads).
constexpr uint32_t MaxFrameBytes = 64u << 20;

/// Incremental length-prefix frame assembly for non-blocking sockets.
/// Feed whatever bytes recv() produced; complete frames pop out. An
/// oversized length prefix fails fast — before the payload buffer is
/// allocated — with the same message the blocking readFrame produces, so
/// both paths answer a hostile header identically.
class FrameAssembler {
public:
  /// Consumes \p N bytes. Every frame completed by this chunk is appended
  /// to \p Frames (possibly several — pipelined peers batch). Returns
  /// false and fills \p Err on an oversized prefix; the stream is
  /// unrecoverable afterwards and the connection must be dropped.
  bool feed(const char *Data, size_t N, std::vector<std::string> &Frames,
            std::string &Err);

  /// True while bytes of an unfinished frame (header or body) are held —
  /// the "mid-frame" predicate the read-deadline sweep uses.
  bool midFrame() const { return HeaderGot > 0 || InBody; }

  /// Bytes of the current unfinished frame buffered so far.
  size_t pendingBytes() const { return HeaderGot + Body.size(); }

private:
  unsigned char Header[4];
  size_t HeaderGot = 0;
  bool InBody = false;
  uint32_t Need = 0; ///< body bytes promised by the last complete header
  std::string Body;  ///< body bytes received so far (Body.size() <= Need)
};

/// Appends the 4-byte big-endian length prefix + \p Payload to \p Out —
/// the wire encoding writeFrame sends, reusable by buffered writers.
void appendFrame(std::string &Out, std::string_view Payload);

/// Reads one length-prefixed frame from \p Fd into \p Out. Returns 1 on
/// success, 0 on clean EOF at a frame boundary, -1 on error (Err filled;
/// EOF mid-frame is an error).
int readFrame(int Fd, std::string &Out, std::string &Err);

/// Writes \p Payload as one frame. False + Err on failure.
bool writeFrame(int Fd, std::string_view Payload, std::string &Err);

/// readFrame + JSON parse. Same return convention as readFrame.
int readJson(int Fd, Json &Out, std::string &Err);

/// Serializes \p Message straight into one frame: the 4-byte length
/// prefix and the JSON text, with no copy of the payload.
std::string frameJson(const Json &Message);

/// frameJson + write.
bool writeJson(int Fd, const Json &Message, std::string &Err);

/// Canonical error response body.
Json errorResponse(std::string_view Message);

} // namespace service
} // namespace lockin

#endif // LOCKIN_SERVICE_PROTOCOL_H
