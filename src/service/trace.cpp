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
  out.reserve(256);
  char buf[96];
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

std::string render_solve_log_json(const SolveLogRecord& rec, double ts) {
  std::string out;
  out.reserve(256);
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"ev\":\"solve\",\"v\":1,\"ts\":%.6f,\"id\":%" PRIu64,
                ts, rec.id);
  out += buf;
  out += ",\"op\":";
  append_escaped(out, rec.op);
  out += ",\"fp\":";
  append_escaped(out, rec.fp);
  std::snprintf(buf, sizeof buf,
                ",\"ddg_ops\":%lld,\"ddg_arcs\":%lld,\"ddg_cp\":%lld"
                ",\"ddg_width\":%lld",
                rec.ddg_ops, rec.ddg_arcs, rec.ddg_cp, rec.ddg_width);
  out += buf;
  out += ",\"ddg_types\":";
  append_escaped(out, rec.ddg_types);
  out += ",\"ok\":";
  out += rec.ok ? "true" : "false";
  out += ",\"cached\":";
  out += rec.cached ? "true" : "false";
  out += ",\"tier\":\"";
  out += rec.tier;
  out += "\",\"stop\":\"";
  out += rec.stop;
  out += "\"";
  std::snprintf(buf, sizeof buf, ",\"nodes\":%lld", rec.nodes);
  out += buf;
  append_ms(out, "parse_ms", rec.parse_ms);
  append_ms(out, "solve_ms", rec.solve_ms);
  // total_ms is a required key: render even when unmeasured (as 0).
  std::snprintf(buf, sizeof buf, ",\"total_ms\":%.3f",
                rec.total_ms < 0 ? 0.0 : rec.total_ms);
  out += buf;
  out += '}';
  return out;
}

TraceSink::TraceSink(const Config& cfg) : cfg_(cfg) {
  out_.open(cfg_.path, std::ios::out | std::ios::trunc);
  RS_REQUIRE(out_.is_open(), "trace: cannot open trace file: " + cfg_.path);
  buf_.reserve(cfg_.flush_threshold + 4096);
}

TraceSink::~TraceSink() { flush(); }

void TraceSink::write(const TraceSpan& span) {
  // Render outside the lock: string building is the expensive part.
  write_line(render_trace_json(span, support::unix_now_seconds()));
}

void TraceSink::write_line(std::string line) {
  line += '\n';

  std::string to_flush;
  {
    support::LockGuard lock(mu_);
    if (buf_.size() + line.size() > cfg_.max_buffer) {
      // Flusher is stalled (or the buffer is misconfigured tiny): drop
      // rather than block the serving path.
      ++dropped_;
      return;
    }
    buf_ += line;
    ++written_;
    if (buf_.size() < cfg_.flush_threshold || flushing_) {
      return;  // below threshold, or another thread is already flushing
    }
    flushing_ = true;
    to_flush.swap(buf_);
  }
  // File I/O outside the lock; concurrent writers keep appending to buf_.
  out_.write(to_flush.data(), static_cast<std::streamsize>(to_flush.size()));
  {
    support::LockGuard lock(mu_);
    flushing_ = false;
  }
  flushed_.notify_all();
}

void TraceSink::flush() {
  support::UniqueLock lock(mu_);
  // Wait out any in-flight threshold flush so lines stay whole and ordered.
  // Explicit loop (not a predicate lambda) so the guarded read of flushing_
  // stays visible to the thread-safety analysis.
  while (flushing_) flushed_.wait(lock);
  std::string to_flush;
  to_flush.swap(buf_);
  flushing_ = true;
  lock.unlock();
  if (!to_flush.empty()) {
    out_.write(to_flush.data(), static_cast<std::streamsize>(to_flush.size()));
  }
  out_.flush();
  lock.lock();
  flushing_ = false;
  lock.unlock();
  flushed_.notify_all();
}

std::uint64_t TraceSink::written() const {
  support::LockGuard lock(mu_);
  return written_;
}

std::uint64_t TraceSink::dropped() const {
  support::LockGuard lock(mu_);
  return dropped_;
}

}  // namespace rs::service
