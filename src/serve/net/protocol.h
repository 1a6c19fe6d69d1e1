// Wire protocol of the network serving front-end: length-prefixed binary
// framing with a JSON request/response codec inside each frame.
//
// Framing. A frame is a 4-byte little-endian payload length followed by
// exactly that many payload bytes. Length 0 and lengths above the
// negotiated cap are protocol violations: once the byte stream disagrees
// with the framing there is no way to resynchronize, so the server closes
// the connection (a malformed JSON PAYLOAD, by contrast, leaves the framing
// intact and costs only an error response). FrameDecoder is incremental —
// feed it whatever read() returned, pop complete frames; it is the single
// implementation both server and client use, so partial reads split at any
// byte boundary reassemble identically everywhere (test_net_protocol sweeps
// every split).
//
// Requests (one JSON object per frame):
//   {"id":7,"method":"ask","question":"red honda under 9000","budget_ms":25}
//   {"id":8,"method":"ask_in_domain","domain":"cars","question":"..."}
//   {"id":9,"method":"statsz"}          server + cache + queue telemetry
//   {"id":0,"method":"ping"}            liveness / receiver unblocking
// budget_ms > 0 sets the request deadline (arrival + budget, propagated
// into the engine's Deadline checks); 0/absent = no
// deadline; < 0 = an already-expired deadline (deterministic test hook for
// the expired-in-queue path); budget_ms >= kMaxBudgetMs (about 146 years)
// = no deadline. An id outside [0, kMaxWireId = 2^53] is invalid_argument,
// and so is an ask whose question is empty or longer than kMaxQuestionBytes
// (4096): the tag stage costs time linear in the question and checks no
// deadline inside itself, so an unbounded question could pin a worker far
// past any budget. That refusal carries the request's id.
//
// Responses:
//   {"id":7,"status":"ok","domain":"cars",
//    "canonical":"<CanonicalAskResultString>"}
//   {"id":8,"status":"deadline_exceeded","error":"..."}
//   {"id":9,"status":"ok","stats":{...}}
// `status` is the lowercase StatusCode name ("ok", "deadline_exceeded",
// "overloaded", "invalid_argument", ...). `canonical` carries the full
// canonical answer serialization so clients can assert byte-identity with
// in-process Ask — the parity gate the net_serve bench enforces. Responses
// to one connection may arrive out of request order (the server executes
// concurrently); `id` is the correlator.
#ifndef CQADS_SERVE_NET_PROTOCOL_H_
#define CQADS_SERVE_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/deadline.h"
#include "common/status.h"

namespace cqads::serve::net {

/// Default frame-payload cap. Requests are questions (bytes to KB) and
/// responses are answer tables (KB); 16 MiB is far above anything legal,
/// close below anything an attacker would like the server to buffer.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// The largest id a request or response may carry: 2^53, up to which every
/// integer survives the trip through a JSON number (a double) unchanged.
inline constexpr double kMaxWireId = 9007199254740992.0;

/// The longest question an ask may carry over the wire, in bytes. Far
/// above any real question (the paper's are tens of bytes); in-process
/// CqadsEngine::Ask takes any length.
inline constexpr std::size_t kMaxQuestionBytes = 4096;

/// Budgets from here up mean no deadline: 2^62 ns in ms (about 146 years).
/// The server turns a budget into a steady-clock instant, arrival plus the
/// budget in nanoseconds; below this bound that sum fits the clock's int64
/// with 2^62 ns (its reading, time since boot) to spare.
inline constexpr double kMaxBudgetMs = 4611686018427.387904;

/// Appends one frame (length prefix + payload) to `out`.
void AppendFrame(std::string_view payload, std::string* out);

/// Incremental frame reassembly over an untrusted byte stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw bytes from the transport.
  void Feed(const char* data, std::size_t n) { buffer_.append(data, n); }

  enum class Next {
    kFrame,     ///< *payload holds one complete frame's payload
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< framing violation (zero/oversized length) — close the
                ///< connection; error() says why
  };

  /// Extracts the next complete frame, if any. Call until it stops
  /// returning kFrame. After kError the decoder stays in the error state.
  Next Pop(std::string* payload);

  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed (tests assert tight buffering).
  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::uint32_t max_frame_bytes_;
  std::string buffer_;
  std::string error_;
  bool failed_ = false;
};

struct Request {
  std::uint64_t id = 0;
  std::string method;    ///< "ask", "ask_in_domain", "statsz", "ping"
  std::string domain;    ///< ask_in_domain only
  std::string question;  ///< ask / ask_in_domain
  double budget_ms = 0.0;
};

struct Response {
  std::uint64_t id = 0;
  std::string status = "ok";  ///< lowercase StatusCode name
  std::string error;          ///< message when status != "ok"
  bool degraded = false;
  std::string domain;
  std::string canonical;   ///< CanonicalAskResultString (ask methods, ok)
  std::string stats_json;  ///< nested "stats" object, as JSON text (statsz)

  bool ok() const { return status == "ok"; }
};

std::string EncodeRequest(const Request& request);
/// Strict decode of an untrusted request payload: must be a JSON object
/// with a string "method" and an id within [0, kMaxWireId]; unknown members
/// are ignored (forward compat).
Result<Request> DecodeRequest(std::string_view payload);

/// The request deadline a budget_ms sets, as the header comment above
/// gives it: infinite for 0, NaN or >= kMaxBudgetMs, expired for < 0.
Deadline BudgetToDeadline(double budget_ms);

/// Writes the response object in one pass, members in the order id,
/// status, error, degraded, domain, canonical, stats (empty or false ones
/// left out); only the nested "stats" object goes through JsonValue.
std::string EncodeResponse(const Response& response);
/// Strict decode, with the same id range as DecodeRequest.
Result<Response> DecodeResponse(std::string_view payload);

/// "ok", "deadline_exceeded", ... — the lowercase wire form of a code.
const char* WireStatusName(StatusCode code);
/// Inverse of WireStatusName; kInternal for unknown names.
StatusCode WireStatusCode(std::string_view name);

}  // namespace cqads::serve::net

#endif  // CQADS_SERVE_NET_PROTOCOL_H_
