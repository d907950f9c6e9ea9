#include "trace/trace_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "harness/experiment.hpp"

namespace esm::trace {
namespace {

TEST(TraceLog, RecordsAndQueries) {
  TraceLog log;
  log.record_delivery({1000, 3, 0, 7, 950});
  log.record_delivery({1100, 4, 0, 7, 1050});
  log.record_payload({900, 0, 3, 7, true});
  EXPECT_EQ(log.deliveries().size(), 2u);
  EXPECT_EQ(log.payloads().size(), 1u);
  EXPECT_EQ(log.deliveries_for(7), 2u);
  EXPECT_EQ(log.payloads_for(7), 1u);
  EXPECT_EQ(log.deliveries_for(8), 0u);
}

TEST(TraceLog, CsvRoundTrip) {
  TraceLog log;
  log.record_delivery({1000, 3, 2, 7, 950});
  log.record_payload({900, 0, 3, 7, true});
  log.record_payload({1200, 3, 5, 7, false});

  std::ostringstream out;
  log.write_csv(out);
  std::istringstream in(out.str());
  const TraceLog parsed = TraceLog::read_csv(in);

  ASSERT_EQ(parsed.deliveries().size(), 1u);
  EXPECT_EQ(parsed.deliveries()[0].time, 1000);
  EXPECT_EQ(parsed.deliveries()[0].node, 3u);
  EXPECT_EQ(parsed.deliveries()[0].origin, 2u);
  EXPECT_EQ(parsed.deliveries()[0].seq, 7u);
  EXPECT_EQ(parsed.deliveries()[0].latency, 950);
  ASSERT_EQ(parsed.payloads().size(), 2u);
  EXPECT_TRUE(parsed.payloads()[0].eager);
  EXPECT_FALSE(parsed.payloads()[1].eager);
  EXPECT_EQ(parsed.payloads()[1].dst, 5u);
}

TEST(TraceLog, PhaseRowsRoundTrip) {
  TraceLog log;
  log.record_phase({0, "baseline"});
  log.record_payload({900, 0, 3, 7, true});
  log.record_phase({60 * kSecond, "kill"});
  log.record_delivery({1000, 3, 2, 7, 950});

  std::ostringstream out;
  log.write_csv(out);
  std::istringstream in(out.str());
  const TraceLog parsed = TraceLog::read_csv(in);

  ASSERT_EQ(parsed.phases().size(), 2u);
  EXPECT_EQ(parsed.phases()[0].time, 0);
  EXPECT_EQ(parsed.phases()[0].label, "baseline");
  EXPECT_EQ(parsed.phases()[1].time, 60 * kSecond);
  EXPECT_EQ(parsed.phases()[1].label, "kill");
  EXPECT_EQ(parsed.deliveries().size(), 1u);
  EXPECT_EQ(parsed.payloads().size(), 1u);
}

TEST(TraceLog, RejectsPhaseRowWithoutLabel) {
  std::istringstream in(
      "kind,time_us,node,peer,seq,latency_us,eager\nphase,1000,,,,,\n");
  EXPECT_THROW(TraceLog::read_csv(in), std::runtime_error);
}

TEST(TraceLog, RejectsMalformedCsv) {
  {
    std::istringstream in("");
    EXPECT_THROW(TraceLog::read_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("not,a,header\n");
    EXPECT_THROW(TraceLog::read_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("kind,time_us,node,peer,seq,latency_us,eager\nbogus,1,2,3,4,5,6\n");
    EXPECT_THROW(TraceLog::read_csv(in), std::runtime_error);
  }
  {
    std::istringstream in("kind,time_us,node,peer,seq,latency_us,eager\ndelivery,1,2\n");
    EXPECT_THROW(TraceLog::read_csv(in), std::runtime_error);
  }
  {
    std::istringstream in(
        "kind,time_us,node,peer,seq,latency_us,eager\ndelivery,xx,2,3,4,5,\n");
    EXPECT_THROW(TraceLog::read_csv(in), std::runtime_error);
  }
  // Negative or out-of-range ids, seqs and times name their line instead
  // of wrapping (a node of -5 used to become 4294967291).
  for (const char* row :
       {"delivery,1,-5,3,4,5,1,,", "delivery,1,2,3,4294967296,5,1,,",
        "payload,-1,0,3,7,,1,,", "delivery,1,2,3,4,5,1,99999999999,",
        "payload,1,0,3,7,,1,,-2"}) {
    std::istringstream in(
        std::string("kind,time_us,node,peer,seq,latency_us,eager,from,"
                    "recv_time_us\n") +
        row + "\n");
    try {
      TraceLog::read_csv(in);
      ADD_FAILURE() << "accepted: " << row;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("trace line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceLog, CsvRoundTripKeepsV2Fields) {
  TraceLog log;
  log.record_delivery({1000, 3, 2, 7, 950, /*from=*/9, /*eager=*/false});
  const TraceLog::PayloadHandle h = log.record_payload({900, 0, 3, 7, true});
  log.set_payload_recv(h, 1234);

  std::ostringstream out;
  log.write_csv(out);
  std::istringstream in(out.str());
  const TraceLog parsed = TraceLog::read_csv(in);

  ASSERT_EQ(parsed.deliveries().size(), 1u);
  EXPECT_EQ(parsed.deliveries()[0].from, 9u);
  EXPECT_FALSE(parsed.deliveries()[0].eager);
  ASSERT_EQ(parsed.payloads().size(), 1u);
  EXPECT_EQ(parsed.payloads()[0].recv_time, 1234);
}

TEST(TraceLog, ReadsV1TracesWithDefaults) {
  // Pre-extension schema: 7 columns, no from/recv_time_us. Absent fields
  // take the struct defaults so old campaign logs stay loadable.
  std::istringstream in(
      "kind,time_us,node,peer,seq,latency_us,eager\n"
      "delivery,1000,3,2,7,950,\n"
      "payload,900,0,3,7,,1\n"
      "phase,0,,,,,baseline\n");
  const TraceLog parsed = TraceLog::read_csv(in);
  ASSERT_EQ(parsed.deliveries().size(), 1u);
  EXPECT_EQ(parsed.deliveries()[0].from, kInvalidNode);
  EXPECT_TRUE(parsed.deliveries()[0].eager);
  ASSERT_EQ(parsed.payloads().size(), 1u);
  EXPECT_EQ(parsed.payloads()[0].recv_time, 0);
  EXPECT_TRUE(parsed.payloads()[0].eager);
  ASSERT_EQ(parsed.phases().size(), 1u);
  EXPECT_EQ(parsed.phases()[0].label, "baseline");
}

TEST(TraceLog, HeaderOnlyParsesToEmptyLog) {
  std::istringstream in(
      "kind,time_us,node,peer,seq,latency_us,eager,from,recv_time_us\n");
  const TraceLog parsed = TraceLog::read_csv(in);
  EXPECT_EQ(parsed.delivery_count(), 0u);
  EXPECT_EQ(parsed.payload_count(), 0u);
  EXPECT_EQ(parsed.phase_count(), 0u);
}

TEST(TraceLog, RejectsWrongFieldCounts) {
  // 8 fields is neither schema v1 (7) nor v2 (9).
  std::istringstream in(
      "kind,time_us,node,peer,seq,latency_us,eager,from,recv_time_us\n"
      "delivery,1,2,3,4,5,1,6\n");
  EXPECT_THROW(TraceLog::read_csv(in), std::runtime_error);
}

TEST(TraceLog, RejectsCommaInPhaseLabel) {
  TraceLog log;
  EXPECT_THROW(log.record_phase({0, "warm,up"}), CheckFailure);
  EXPECT_THROW(log.record_phase({0, "two\nlines"}), CheckFailure);
  EXPECT_EQ(log.phase_count(), 0u);
}

TEST(TraceLog, StreamingMatchesBufferedRowForRow) {
  auto record = [](TraceLog& log) {
    log.record_phase({0, "baseline"});
    const TraceLog::PayloadHandle a = log.record_payload({900, 0, 3, 7, true});
    log.set_payload_recv(a, 1000);
    log.record_delivery({1000, 3, 0, 7, 100, 0, true});
    // Never acknowledged: the streamed row must still appear at flush().
    log.record_payload({1100, 3, 5, 7, false});
    log.flush();
  };

  TraceLog buffered;
  record(buffered);
  std::ostringstream buffered_csv;
  buffered.write_csv(buffered_csv);

  std::ostringstream streamed_csv;
  TraceLog streaming;
  streaming.stream_to(streamed_csv);
  record(streaming);

  EXPECT_TRUE(streaming.streaming());
  EXPECT_EQ(streaming.delivery_count(), 1u);
  EXPECT_EQ(streaming.payload_count(), 2u);
  EXPECT_EQ(streaming.phase_count(), 1u);
  EXPECT_TRUE(streaming.deliveries().empty());  // nothing retained

  // Buffered write_csv groups rows by kind while streaming emits them in
  // record order, so compare as sorted row sets.
  auto rows = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) out.push_back(line);
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(rows(buffered_csv.str()), rows(streamed_csv.str()));

  // Streamed output parses back to the same events.
  std::istringstream in(streamed_csv.str());
  const TraceLog parsed = TraceLog::read_csv(in);
  EXPECT_EQ(parsed.deliveries().size(), 1u);
  EXPECT_EQ(parsed.payloads().size(), 2u);
  EXPECT_EQ(parsed.phases().size(), 1u);
}

TEST(TraceLog, StreamingModeRestrictsBufferedApis) {
  std::ostringstream sink;
  {
    TraceLog log;
    log.record_delivery({1000, 3, 0, 7, 100});
    // Too late: rows already buffered.
    EXPECT_THROW(log.stream_to(sink), CheckFailure);
  }
  {
    TraceLog log;
    log.stream_to(sink);
    std::ostringstream out;
    EXPECT_THROW(log.write_csv(out), CheckFailure);
  }
}

TEST(TraceLog, HarnessTraceMatchesAggregates) {
  harness::ExperimentConfig c;
  c.seed = 21;
  c.num_nodes = 30;
  c.num_messages = 40;
  c.warmup = 10 * kSecond;
  c.topology.num_underlay_vertices = 400;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  c.strategy = harness::StrategySpec::make_ttl(2);
  c.collect_trace = true;
  const harness::ExperimentResult r = harness::run_experiment(c);
  ASSERT_NE(r.trace, nullptr);

  // The trace's payload events equal the transport's payload packets, and
  // deliveries equal num_messages x num_nodes (no loss, no failures).
  EXPECT_EQ(r.trace->payloads().size(), r.payload_packets);
  EXPECT_EQ(r.trace->deliveries().size(),
            static_cast<std::size_t>(c.num_messages) * c.num_nodes);
  // Per-message payload counts match the harness accounting.
  for (std::uint32_t seq = 0; seq < c.num_messages; ++seq) {
    EXPECT_EQ(r.trace->payloads_for(seq), r.payload_tx_per_message[seq]);
  }
  // Latency recorded per delivery is non-negative and zero at origins.
  // Every non-origin delivery carries its tree parent (no loss in this
  // configuration, so every delivery came through the payload scheduler).
  std::size_t origin_deliveries = 0;
  for (const DeliveryEvent& e : r.trace->deliveries()) {
    EXPECT_GE(e.latency, 0);
    if (e.node == e.origin) {
      EXPECT_EQ(e.latency, 0);
      ++origin_deliveries;
    } else {
      EXPECT_NE(e.from, kInvalidNode);
      EXPECT_NE(e.from, e.node);
    }
  }
  EXPECT_EQ(origin_deliveries, c.num_messages);
  // Payload receive timestamps are filled in and causally ordered.
  std::size_t received = 0;
  for (const PayloadEvent& e : r.trace->payloads()) {
    if (e.recv_time != 0) {
      EXPECT_GT(e.recv_time, e.time);
      ++received;
    }
  }
  EXPECT_GT(received, 0u);
}

TEST(TraceLog, DisabledByDefault) {
  harness::ExperimentConfig c;
  c.seed = 21;
  c.num_nodes = 20;
  c.num_messages = 10;
  c.warmup = 8 * kSecond;
  c.topology.num_underlay_vertices = 400;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  const harness::ExperimentResult r = harness::run_experiment(c);
  EXPECT_EQ(r.trace, nullptr);
}

}  // namespace
}  // namespace esm::trace
