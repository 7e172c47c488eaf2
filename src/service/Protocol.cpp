//===--- Protocol.cpp - Length-prefixed JSON wire protocol ----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unistd.h>

using namespace lockin;
using namespace lockin::service;

namespace {

/// Reads exactly \p Len bytes. Returns 1 on success, 0 on EOF before the
/// first byte, -1 on error or EOF mid-buffer.
int readExact(int Fd, char *Buf, size_t Len, std::string &Err) {
  size_t Done = 0;
  while (Done < Len) {
    ssize_t N = ::read(Fd, Buf + Done, Len - Done);
    if (N > 0) {
      Done += static_cast<size_t>(N);
      continue;
    }
    if (N == 0) {
      if (Done == 0)
        return 0;
      Err = "unexpected EOF mid-frame";
      return -1;
    }
    if (errno == EINTR)
      continue;
    Err = std::strerror(errno);
    return -1;
  }
  return 1;
}

bool writeExact(int Fd, const char *Buf, size_t Len, std::string &Err) {
  size_t Done = 0;
  while (Done < Len) {
    ssize_t N = ::write(Fd, Buf + Done, Len - Done);
    if (N >= 0) {
      Done += static_cast<size_t>(N);
      continue;
    }
    if (errno == EINTR)
      continue;
    Err = std::strerror(errno);
    return false;
  }
  return true;
}

/// Stores \p Len as the 4-byte big-endian frame header at \p P.
void putLength(char *P, size_t Len) {
  for (int I = 3; I >= 0; --I, Len >>= 8)
    P[I] = static_cast<char>(Len & 0xff);
}

} // namespace

bool FrameAssembler::feed(const char *Data, size_t N,
                          std::vector<std::string> &Frames,
                          std::string &Err) {
  size_t Pos = 0;
  while (Pos < N) {
    if (!InBody) {
      size_t Take = std::min<size_t>(4 - HeaderGot, N - Pos);
      std::memcpy(Header + HeaderGot, Data + Pos, Take);
      HeaderGot += Take;
      Pos += Take;
      if (HeaderGot < 4)
        return true;
      Need = (uint32_t(Header[0]) << 24) | (uint32_t(Header[1]) << 16) |
             (uint32_t(Header[2]) << 8) | uint32_t(Header[3]);
      // Reject before reserving a byte of payload — a hostile header can
      // never make the daemon allocate.
      if (Need > MaxFrameBytes) {
        Err = "frame too large (" + std::to_string(Need) + " bytes)";
        return false;
      }
      HeaderGot = 0;
      InBody = true;
      Body.clear();
    }
    size_t Take = std::min<size_t>(Need - Body.size(), N - Pos);
    Body.append(Data + Pos, Take);
    Pos += Take;
    if (Body.size() == Need) {
      Frames.push_back(std::move(Body));
      Body.clear();
      Need = 0;
      InBody = false;
    } else {
      return true; // body incomplete; wait for more bytes
    }
  }
  return true;
}

void lockin::service::appendFrame(std::string &Out,
                                  std::string_view Payload) {
  size_t Pos = Out.size();
  Out.resize(Pos + 4);
  putLength(Out.data() + Pos, Payload.size());
  Out.append(Payload);
}

int lockin::service::readFrame(int Fd, std::string &Out, std::string &Err) {
  unsigned char Header[4];
  int Rc = readExact(Fd, reinterpret_cast<char *>(Header), 4, Err);
  if (Rc <= 0)
    return Rc;
  uint32_t Len = (uint32_t(Header[0]) << 24) | (uint32_t(Header[1]) << 16) |
                 (uint32_t(Header[2]) << 8) | uint32_t(Header[3]);
  if (Len > MaxFrameBytes) {
    Err = "frame too large (" + std::to_string(Len) + " bytes)";
    return -1;
  }
  Out.resize(Len);
  if (Len == 0)
    return 1;
  Rc = readExact(Fd, Out.data(), Len, Err);
  if (Rc == 0) {
    Err = "unexpected EOF mid-frame";
    return -1;
  }
  return Rc;
}

bool lockin::service::writeFrame(int Fd, std::string_view Payload,
                                 std::string &Err) {
  if (Payload.size() > MaxFrameBytes) {
    Err = "frame too large";
    return false;
  }
  // One buffer, one stream of writes: no interleaving hazard when two
  // threads would share a socket (they must not, but keep frames atomic
  // at this layer anyway for short messages).
  std::string Buf;
  Buf.reserve(4 + Payload.size());
  appendFrame(Buf, Payload);
  return writeExact(Fd, Buf.data(), Buf.size(), Err);
}

int lockin::service::readJson(int Fd, Json &Out, std::string &Err) {
  std::string Payload;
  int Rc = readFrame(Fd, Payload, Err);
  if (Rc <= 0)
    return Rc;
  if (!Json::parse(Payload, Out, Err))
    return -1;
  return 1;
}

std::string lockin::service::frameJson(const Json &Message) {
  // Serialize straight after a header placeholder: no payload copy.
  std::string Buf(4, '\0');
  Message.write(Buf);
  putLength(Buf.data(), Buf.size() - 4);
  return Buf;
}

bool lockin::service::writeJson(int Fd, const Json &Message,
                                std::string &Err) {
  std::string Buf = frameJson(Message);
  if (Buf.size() - 4 > MaxFrameBytes) {
    Err = "frame too large";
    return false;
  }
  return writeExact(Fd, Buf.data(), Buf.size(), Err);
}

Json lockin::service::errorResponse(std::string_view Message) {
  return Json::object({{"ok", Json::boolean(false)},
                       {"error", Json::string(std::string(Message))}});
}
