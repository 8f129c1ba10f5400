#include "service/trace.hpp"

#include <cinttypes>
#include <cstdio>

#include "support/assert.hpp"
#include "support/timer.hpp"

namespace rs::service {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_ms(std::string& out, const char* key, double v) {
  if (v < 0) return;  // phase never entered: omit, don't write 0
  char buf[48];
  std::snprintf(buf, sizeof buf, ",\"%s\":%.3f", key, v);
  out += buf;
}

}  // namespace

std::string render_trace_json(const TraceSpan& span, double ts) {
  std::string out;
  out.reserve(320);
  char buf[160];
  std::snprintf(buf, sizeof buf, "{\"ev\":\"request\",\"ts\":%.6f,\"id\":%" PRIu64,
                ts, span.id);
  out += buf;
  out += ",\"op\":";
  append_escaped(out, span.op);
  out += ",\"name\":";
  append_escaped(out, span.name);
  out += ",\"fp\":";
  append_escaped(out, span.fp);
  out += ",\"ok\":";
  out += span.ok ? "true" : "false";
  out += ",\"cached\":";
  out += span.cached ? "true" : "false";
  out += ",\"tier\":\"";
  out += span.tier;
  out += "\",\"stop\":\"";
  out += span.stop;
  out += "\"";
  std::snprintf(buf, sizeof buf, ",\"nodes\":%lld", span.nodes);
  out += buf;
  if (span.blocks_parallel > 0) {
    std::snprintf(buf, sizeof buf, ",\"blocks_parallel\":%lld",
                  span.blocks_parallel);
    out += buf;
  }
  if (!span.fp.empty()) {
    std::snprintf(buf, sizeof buf,
                  ",\"ddg_ops\":%lld,\"ddg_arcs\":%lld,\"ddg_cp\":%lld"
                  ",\"ddg_width\":%lld",
                  span.ddg_ops, span.ddg_arcs, span.ddg_cp, span.ddg_width);
    out += buf;
    out += ",\"ddg_types\":";
    append_escaped(out, span.ddg_types);
  }
  append_ms(out, "parse_ms", span.parse_ms);
  append_ms(out, "queue_ms", span.queue_ms);
  append_ms(out, "fp_ms", span.fp_ms);
  append_ms(out, "lookup_ms", span.lookup_ms);
  append_ms(out, "solve_ms", span.solve_ms);
  append_ms(out, "encode_ms", span.encode_ms);
  // total_ms is a required key: render even when unmeasured (as 0).
  std::snprintf(buf, sizeof buf, ",\"total_ms\":%.3f",
                span.total_ms < 0 ? 0.0 : span.total_ms);
  out += buf;
  if (span.bytes > 0) {
    std::snprintf(buf, sizeof buf, ",\"bytes\":%" PRIu64, span.bytes);
    out += buf;
  }
  if (!span.error.empty()) {
    out += ",\"err\":";
    append_escaped(out, span.error);
  }
  out += '}';
  return out;
}

TraceSink::TraceSink(const std::string& path) : path_(path) {
  out_.open(path_, std::ios::out | std::ios::trunc);
  RS_REQUIRE(out_.is_open(), "trace: cannot open trace file: " + path_);
  buf_.reserve(kFlushThreshold + 4096);
}

TraceSink::~TraceSink() { flush(); }

void TraceSink::write(const TraceSpan& span) {
  buf_ += render_trace_json(span, support::unix_now_seconds());
  buf_ += '\n';
  ++written_;
  if (buf_.size() >= kFlushThreshold) {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
}

void TraceSink::flush() {
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
  out_.flush();
}

}  // namespace rs::service
