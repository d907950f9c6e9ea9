#include "trace/trace_log.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"
#include "common/line_grammar.hpp"

namespace esm::trace {

void TraceLog::stream_to(std::ostream& os) {
  ESM_CHECK(delivery_count_ == 0 && payload_count_ == 0 && phase_count_ == 0,
            "stream_to must be set before any event is recorded");
  sink_ = &os;
  os << "kind,time_us,node,peer,seq,latency_us,eager,from,recv_time_us\n";
}

void TraceLog::write_delivery_row(std::ostream& os,
                                  const DeliveryEvent& e) const {
  os << "delivery," << e.time << ',' << e.node << ',' << e.origin << ','
     << e.seq << ',' << e.latency << ',' << (e.eager ? 1 : 0) << ',';
  if (e.from != kInvalidNode) os << e.from;
  os << ",\n";
}

void TraceLog::write_payload_row(std::ostream& os,
                                 const PayloadEvent& e) const {
  os << "payload," << e.time << ',' << e.src << ',' << e.dst << ',' << e.seq
     << ",," << (e.eager ? 1 : 0) << ",,";
  if (e.recv_time != 0) os << e.recv_time;
  os << '\n';
}

void TraceLog::write_phase_row(std::ostream& os, const PhaseEvent& e) const {
  os << "phase," << e.time << ",,,,," << e.label << ",,\n";
}

void TraceLog::record_delivery(const DeliveryEvent& event) {
  ++delivery_count_;
  if (sink_ != nullptr) {
    write_delivery_row(*sink_, event);
  } else {
    deliveries_.push_back(event);
  }
}

TraceLog::PayloadHandle TraceLog::record_payload(const PayloadEvent& event) {
  const PayloadHandle handle = payload_count_++;
  if (sink_ != nullptr) {
    // Held back until the receive time is known (set_payload_recv) or the
    // run ends (flush), so lost packets still appear with recv_time empty.
    pending_payloads_.emplace(handle, event);
  } else {
    payloads_.push_back(event);
  }
  return handle;
}

void TraceLog::set_payload_recv(PayloadHandle handle, SimTime recv_time) {
  if (sink_ != nullptr) {
    const auto it = pending_payloads_.find(handle);
    ESM_CHECK(it != pending_payloads_.end(),
              "set_payload_recv: unknown or already-flushed handle");
    it->second.recv_time = recv_time;
    write_payload_row(*sink_, it->second);
    pending_payloads_.erase(it);
    return;
  }
  ESM_CHECK(handle < payloads_.size(), "set_payload_recv: unknown handle");
  payloads_[handle].recv_time = recv_time;
}

void TraceLog::record_phase(PhaseEvent event) {
  ESM_CHECK(event.label.find(',') == std::string::npos &&
                event.label.find('\n') == std::string::npos,
            "phase label must not contain commas or newlines (CSV field)");
  ++phase_count_;
  if (sink_ != nullptr) {
    write_phase_row(*sink_, event);
  } else {
    phases_.push_back(std::move(event));
  }
}

void TraceLog::flush() {
  if (sink_ == nullptr) return;
  for (const auto& [handle, event] : pending_payloads_) {
    write_payload_row(*sink_, event);
  }
  pending_payloads_.clear();
  sink_->flush();
}

void TraceLog::write_csv(std::ostream& os) const {
  ESM_CHECK(sink_ == nullptr,
            "write_csv is for buffered logs; streaming logs already wrote");
  os << "kind,time_us,node,peer,seq,latency_us,eager,from,recv_time_us\n";
  for (const DeliveryEvent& e : deliveries_) write_delivery_row(os, e);
  for (const PayloadEvent& e : payloads_) write_payload_row(os, e);
  for (const PhaseEvent& e : phases_) write_phase_row(os, e);
}

namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, ',')) fields.push_back(field);
  // A trailing empty field is dropped by getline; normalize.
  if (!line.empty() && line.back() == ',') fields.push_back("");
  return fields;
}

}  // namespace

TraceLog TraceLog::read_csv(std::istream& is) {
  TraceLog log;
  text::Lexer lex("trace");
  std::string line;
  if (!lex.next_raw_line(is, line)) throw std::runtime_error("empty trace");
  if (line.rfind("kind,", 0) != 0) lex.fail("missing trace header");
  const auto time = [&lex](const std::string& field) {
    return static_cast<SimTime>(lex.integer(field, kTimeInfinity));
  };
  while (lex.next_raw_line(is, line)) {
    if (line.empty()) continue;
    const auto f = split_csv_line(line);
    // 7 fields = schema v1 (no from/recv_time_us columns), 9 = v2.
    if (f.size() != 7 && f.size() != 9) {
      lex.fail("bad field count: " + line);
    }
    const bool v2 = f.size() == 9;
    if (f[0] == "delivery") {
      DeliveryEvent e;
      e.time = time(f[1]);
      e.node = lex.u32(f[2]);
      e.origin = lex.u32(f[3]);
      e.seq = lex.u32(f[4]);
      e.latency = time(f[5]);
      // v1 wrote an empty eager column for deliveries; keep the default.
      if (!f[6].empty()) e.eager = lex.integer(f[6], 1) != 0;
      if (v2 && !f[7].empty()) e.from = lex.u32(f[7]);
      log.record_delivery(e);
    } else if (f[0] == "payload") {
      PayloadEvent e;
      e.time = time(f[1]);
      e.src = lex.u32(f[2]);
      e.dst = lex.u32(f[3]);
      e.seq = lex.u32(f[4]);
      e.eager = lex.integer(f[6], 1) != 0;
      if (v2 && !f[8].empty()) e.recv_time = time(f[8]);
      log.record_payload(e);
    } else if (f[0] == "phase") {
      PhaseEvent e;
      e.time = time(f[1]);
      e.label = f[6];
      if (e.label.empty()) lex.fail("phase row without a label: " + line);
      log.record_phase(std::move(e));
    } else {
      lex.fail("unknown event kind: " + f[0]);
    }
  }
  return log;
}

std::size_t TraceLog::payloads_for(std::uint32_t seq) const {
  std::size_t count = 0;
  for (const PayloadEvent& e : payloads_) {
    if (e.seq == seq) ++count;
  }
  return count;
}

std::size_t TraceLog::deliveries_for(std::uint32_t seq) const {
  std::size_t count = 0;
  for (const DeliveryEvent& e : deliveries_) {
    if (e.seq == seq) ++count;
  }
  return count;
}

}  // namespace esm::trace
