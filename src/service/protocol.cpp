#include "service/protocol.hpp"

#include <utility>

namespace micco::service {

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kSubmit: return "submit";
    case MessageType::kStatus: return "status";
    case MessageType::kDrain: return "drain";
    case MessageType::kShutdown: return "shutdown";
    case MessageType::kStats: return "stats";
    case MessageType::kMetrics: return "metrics";
  }
  return "?";
}

std::optional<MessageType> parse_message_type(const std::string& text) {
  if (text == "submit") return MessageType::kSubmit;
  if (text == "status") return MessageType::kStatus;
  if (text == "drain") return MessageType::kDrain;
  if (text == "shutdown") return MessageType::kShutdown;
  if (text == "stats") return MessageType::kStats;
  if (text == "metrics") return MessageType::kMetrics;
  return std::nullopt;
}

namespace {

obs::JsonValue request_skeleton(MessageType type) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("v", kProtocolVersion);
  doc.set("type", to_string(type));
  return doc;
}

}  // namespace

obs::JsonValue make_submit_request(const std::string& tenant,
                                   const std::string& job_name,
                                   const std::string& workload_text,
                                   const std::string& trace_id,
                                   const std::string& idem) {
  obs::JsonValue doc = request_skeleton(MessageType::kSubmit);
  doc.set("tenant", tenant);
  if (!job_name.empty()) doc.set("job_name", job_name);
  if (!trace_id.empty()) doc.set("trace", trace_id);
  if (!idem.empty()) doc.set("idem", idem);
  doc.set("workload", workload_text);
  return doc;
}

obs::JsonValue make_job_request(MessageType type, std::uint64_t job_id) {
  obs::JsonValue doc = request_skeleton(type);
  doc.set("job_id", job_id);
  return doc;
}

obs::JsonValue make_plain_request(MessageType type) {
  return request_skeleton(type);
}

obs::JsonValue make_ok_response() {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("ok", true);
  return doc;
}

obs::JsonValue make_error_response(const std::string& code,
                                   const std::string& message) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("ok", false);
  doc.set("code", code);
  doc.set("message", message);
  return doc;
}

std::optional<Request> parse_request(const obs::JsonValue& doc,
                                     obs::JsonValue* error_reply) {
  const auto fail = [&](const char* code, const std::string& message) {
    if (error_reply != nullptr) {
      *error_reply = make_error_response(code, message);
    }
    return std::nullopt;
  };
  if (doc.kind() != obs::JsonValue::Kind::kObject) {
    return fail(error_code::kBadRequest, "request is not a JSON object");
  }
  const obs::JsonValue* version = doc.find("v");
  if (version == nullptr || version->kind() != obs::JsonValue::Kind::kInt) {
    return fail(error_code::kBadVersion,
                "missing or non-integer protocol version 'v'");
  }
  if (version->as_int() != kProtocolVersion) {
    return fail(error_code::kBadVersion,
                "unsupported protocol version " +
                    std::to_string(version->as_int()) + " (daemon speaks " +
                    std::to_string(kProtocolVersion) + ")");
  }
  const obs::JsonValue* type_field = doc.find("type");
  if (type_field == nullptr ||
      type_field->kind() != obs::JsonValue::Kind::kString) {
    return fail(error_code::kBadRequest, "missing request 'type'");
  }
  const std::optional<MessageType> type =
      parse_message_type(type_field->as_string());
  if (!type.has_value()) {
    return fail(error_code::kUnknownType,
                "unknown message type '" + type_field->as_string() + "'");
  }

  Request req;
  req.type = *type;
  switch (*type) {
    case MessageType::kSubmit: {
      const obs::JsonValue* workload = doc.find("workload");
      if (workload == nullptr ||
          workload->kind() != obs::JsonValue::Kind::kString) {
        return fail(error_code::kBadRequest,
                    "submit needs a string 'workload' field");
      }
      req.workload_text = workload->as_string();
      const obs::JsonValue* tenant = doc.find("tenant");
      if (tenant != nullptr) {
        if (tenant->kind() != obs::JsonValue::Kind::kString) {
          return fail(error_code::kBadRequest, "'tenant' must be a string");
        }
        req.tenant = tenant->as_string();
      }
      if (req.tenant.empty()) req.tenant = "default";
      const obs::JsonValue* name = doc.find("job_name");
      if (name != nullptr) {
        if (name->kind() != obs::JsonValue::Kind::kString) {
          return fail(error_code::kBadRequest, "'job_name' must be a string");
        }
        req.job_name = name->as_string();
      }
      const obs::JsonValue* trace = doc.find("trace");
      if (trace != nullptr) {
        if (trace->kind() != obs::JsonValue::Kind::kString) {
          return fail(error_code::kBadRequest, "'trace' must be a string");
        }
        req.trace_id = trace->as_string();
      }
      const obs::JsonValue* idem = doc.find("idem");
      if (idem != nullptr) {
        if (idem->kind() != obs::JsonValue::Kind::kString) {
          return fail(error_code::kBadRequest, "'idem' must be a string");
        }
        req.idem = idem->as_string();
      }
      break;
    }
    case MessageType::kStatus: {
      const obs::JsonValue* id = doc.find("job_id");
      if (id == nullptr || id->kind() != obs::JsonValue::Kind::kInt ||
          id->as_int() < 0) {
        return fail(error_code::kBadRequest,
                    "status needs an integer 'job_id'");
      }
      req.job_id = static_cast<std::uint64_t>(id->as_int());
      break;
    }
    case MessageType::kDrain:
    case MessageType::kShutdown:
    case MessageType::kStats:
    case MessageType::kMetrics:
      break;
  }
  return req;
}

std::string encode_frame(const obs::JsonValue& doc) {
  std::string frame = doc.dump();
  frame += '\n';
  return frame;
}

void FrameReader::feed(std::string_view bytes) {
  // One run per line: the bytes up to each newline move at once.
  while (!bytes.empty()) {
    const std::size_t newline = bytes.find('\n');
    const bool ends_line = newline != std::string_view::npos;
    const std::string_view run = bytes.substr(0, newline);
    bytes.remove_prefix(ends_line ? newline + 1 : bytes.size());
    if (discarding_) {
      // Swallow the rest of the oversized frame; its newline re-syncs the
      // stream ('\n' never appears inside a payload — the JSON writer
      // escapes every control character).
      if (ends_line) discarding_ = false;
      continue;
    }
    if (partial_.size() + run.size() > max_frame_bytes_) {
      // The in-flight line outgrew the limit: drop what arrived of it and
      // keep dropping until its terminating newline.
      partial_.clear();
      discarding_ = !ends_line;
      pending_oversized_ = true;
      continue;
    }
    partial_ += run;
    if (ends_line) {
      ready_bytes_ += partial_.size();
      ready_.push_back(std::move(partial_));
      partial_.clear();
    }
  }
}

std::optional<std::string> FrameReader::next_frame(bool* oversized) {
  if (oversized != nullptr) {
    *oversized = pending_oversized_;
  }
  pending_oversized_ = false;
  if (ready_.empty()) return std::nullopt;
  std::string frame = std::move(ready_.front());
  ready_.pop_front();
  ready_bytes_ -= frame.size();
  return frame;
}

}  // namespace micco::service
