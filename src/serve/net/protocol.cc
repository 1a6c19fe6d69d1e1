#include "serve/net/protocol.h"

#include <chrono>

#include "common/json.h"

namespace cqads::serve::net {

void AppendFrame(std::string_view payload, std::string* out) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char prefix[4];
  prefix[0] = static_cast<char>(len & 0xFF);
  prefix[1] = static_cast<char>((len >> 8) & 0xFF);
  prefix[2] = static_cast<char>((len >> 16) & 0xFF);
  prefix[3] = static_cast<char>((len >> 24) & 0xFF);
  out->append(prefix, 4);
  out->append(payload.data(), payload.size());
}

FrameDecoder::Next FrameDecoder::Pop(std::string* payload) {
  if (failed_) return Next::kError;
  if (buffer_.size() < 4) return Next::kNeedMore;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data());
  const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16) |
                            (static_cast<std::uint32_t>(p[3]) << 24);
  if (len == 0) {
    failed_ = true;
    error_ = "zero-length frame";
    return Next::kError;
  }
  if (len > max_frame_bytes_) {
    failed_ = true;
    error_ = "frame of " + std::to_string(len) + " bytes exceeds cap of " +
             std::to_string(max_frame_bytes_);
    return Next::kError;
  }
  if (buffer_.size() < 4u + len) return Next::kNeedMore;
  payload->assign(buffer_, 4, len);
  buffer_.erase(0, 4u + len);
  return Next::kFrame;
}

const char* WireStatusName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kOverloaded:
      return "overloaded";
    case StatusCode::kDataLoss:
      return "data_loss";
  }
  return "internal";
}

StatusCode WireStatusCode(std::string_view name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,   StatusCode::kFailedPrecondition,
      StatusCode::kUnimplemented, StatusCode::kInternal,
      StatusCode::kDeadlineExceeded, StatusCode::kOverloaded,
      StatusCode::kDataLoss,
  };
  for (StatusCode code : kCodes) {
    if (name == WireStatusName(code)) return code;
  }
  return StatusCode::kInternal;
}

std::string EncodeRequest(const Request& request) {
  JsonValue v = JsonValue::Object();
  v.Set("id", JsonValue::Number(static_cast<double>(request.id)));
  v.Set("method", JsonValue::Str(request.method));
  if (!request.domain.empty()) {
    v.Set("domain", JsonValue::Str(request.domain));
  }
  if (!request.question.empty()) {
    v.Set("question", JsonValue::Str(request.question));
  }
  if (request.budget_ms != 0.0) {
    v.Set("budget_ms", JsonValue::Number(request.budget_ms));
  }
  return v.Dump();
}

namespace {

/// The "id" member (absent = 0), refused outside [0, kMaxWireId]: past
/// 2^53 doubles skip integers, and casting one past 2^64 to uint64_t is
/// undefined behaviour.
Result<std::uint64_t> DecodeId(const JsonValue& v, const char* what) {
  const double id = v.GetNumber("id", 0.0);
  if (!(id >= 0.0 && id <= kMaxWireId)) {
    return Status::InvalidArgument(std::string(what) +
                                   " id outside [0, 2^53]");
  }
  return static_cast<std::uint64_t>(id);
}

}  // namespace

Result<Request> DecodeRequest(std::string_view payload) {
  auto parsed = JsonValue::Parse(payload);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& v = parsed.value();
  if (!v.is_object()) {
    return Status::InvalidArgument("request is not a JSON object");
  }
  Request request;
  auto id = DecodeId(v, "request");
  if (!id.ok()) return id.status();
  request.id = id.value();
  request.method = v.GetString("method");
  if (request.method.empty()) {
    return Status::InvalidArgument("request has no method");
  }
  request.domain = v.GetString("domain");
  request.question = v.GetString("question");
  request.budget_ms = v.GetNumber("budget_ms", 0.0);
  return request;
}

Deadline BudgetToDeadline(double budget_ms) {
  if (budget_ms >= kMaxBudgetMs) return Deadline::Infinite();
  if (budget_ms > 0.0) {
    return Deadline::After(std::chrono::microseconds(
        static_cast<std::int64_t>(budget_ms * 1000.0)));
  }
  if (budget_ms < 0.0) {
    // Already expired — the deterministic wire form of "this request's
    // budget was spent before it reached the socket" (tests use it to pin
    // the expired-in-queue path without sleeping).
    return Deadline::After(std::chrono::microseconds(-1));
  }
  return Deadline::Infinite();
}

std::string EncodeResponse(const Response& response) {
  std::string out;
  out.reserve(64 + response.status.size() + response.error.size() +
              response.domain.size() + response.canonical.size() +
              response.canonical.size() / 16 + response.stats_json.size());
  out.append("{\"id\":");
  JsonAppendNumber(static_cast<double>(response.id), &out);
  out.append(",\"status\":");
  JsonEscape(response.status, &out);
  if (!response.error.empty()) {
    out.append(",\"error\":");
    JsonEscape(response.error, &out);
  }
  if (response.degraded) out.append(",\"degraded\":true");
  if (!response.domain.empty()) {
    out.append(",\"domain\":");
    JsonEscape(response.domain, &out);
  }
  if (!response.canonical.empty()) {
    out.append(",\"canonical\":");
    JsonEscape(response.canonical, &out);
  }
  if (!response.stats_json.empty()) {
    // The stats dump is itself JSON; nest it as a real object (not a
    // quoted blob) so scrapers address fields as response.stats.answered.
    out.append(",\"stats\":");
    auto stats = JsonValue::Parse(response.stats_json);
    if (stats.ok()) {
      stats.value().DumpTo(&out);
    } else {
      JsonEscape(response.stats_json, &out);
    }
  }
  out.push_back('}');
  return out;
}

Result<Response> DecodeResponse(std::string_view payload) {
  auto parsed = JsonValue::Parse(payload);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& v = parsed.value();
  if (!v.is_object()) {
    return Status::InvalidArgument("response is not a JSON object");
  }
  Response response;
  auto id = DecodeId(v, "response");
  if (!id.ok()) return id.status();
  response.id = id.value();
  response.status = v.GetString("status");
  if (response.status.empty()) {
    return Status::InvalidArgument("response has no status");
  }
  response.error = v.GetString("error");
  response.degraded = v.GetBool("degraded", false);
  response.domain = v.GetString("domain");
  response.canonical = v.GetString("canonical");
  if (const JsonValue* stats = v.Find("stats"); stats != nullptr) {
    response.stats_json = stats->Dump();
  }
  return response;
}

}  // namespace cqads::serve::net
