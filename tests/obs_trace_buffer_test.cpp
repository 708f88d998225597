/// \file obs_trace_buffer_test.cpp
/// Trace pipeline: ring overwrite semantics, per-kind filtering, filter
/// spec parsing, per-kind counts, JSONL export, and the sink adapter.

#include "obs/trace_pipeline.h"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using icollect::obs::kAllTraceKinds;
using icollect::obs::kind_bit;
using icollect::obs::parse_trace_filter;
using icollect::obs::trace_event_json;
using icollect::obs::TraceBuffer;
using icollect::proto::TraceEvent;
using icollect::proto::TraceEventKind;

TraceEvent make_event(TraceEventKind kind, double at, std::uint64_t aux = 0) {
  TraceEvent ev;
  ev.kind = kind;
  ev.at = at;
  ev.slot = 3;
  ev.segment = icollect::coding::SegmentId{7, 9};
  ev.aux = aux;
  return ev;
}

TEST(ParseTraceFilter, EmptyAndAllAcceptEverything) {
  EXPECT_EQ(parse_trace_filter(""), kAllTraceKinds);
  EXPECT_EQ(parse_trace_filter("all"), kAllTraceKinds);
}

TEST(ParseTraceFilter, NamedKinds) {
  const auto mask = parse_trace_filter("gossip,pull,gossip-lost");
  EXPECT_EQ(mask, kind_bit(TraceEventKind::kGossipSent) |
                      kind_bit(TraceEventKind::kServerPull) |
                      kind_bit(TraceEventKind::kGossipLost));
  EXPECT_EQ(parse_trace_filter("decode"),
            kind_bit(TraceEventKind::kSegmentDecoded));
}

TEST(ParseTraceFilter, UnknownNameThrows) {
  EXPECT_THROW((void)parse_trace_filter("gossip,bogus"),
               std::invalid_argument);
}

TEST(TraceBuffer, RingOverwritesOldest) {
  TraceBuffer buf{4};
  for (int i = 0; i < 10; ++i) {
    buf.record(make_event(TraceEventKind::kGossipSent, i));
  }
  EXPECT_EQ(buf.capacity(), 4U);
  EXPECT_EQ(buf.size(), 4U);
  EXPECT_EQ(buf.accepted(), 10U);
  EXPECT_EQ(buf.overwritten(), 6U);
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 4U);
  // Oldest first: the survivors are events 6..9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[i].at, static_cast<double>(6 + i));
  }
}

TEST(TraceBuffer, FilterDropsUnwantedKinds) {
  TraceBuffer buf{8};
  buf.set_filter(kind_bit(TraceEventKind::kServerPull));
  buf.record(make_event(TraceEventKind::kGossipSent, 1.0));
  buf.record(make_event(TraceEventKind::kServerPull, 2.0));
  buf.record(make_event(TraceEventKind::kTtlExpired, 3.0));
  EXPECT_EQ(buf.accepted(), 1U);
  EXPECT_EQ(buf.filtered_out(), 2U);
  EXPECT_EQ(buf.size(), 1U);
  EXPECT_EQ(buf.count(TraceEventKind::kServerPull), 1U);
  EXPECT_EQ(buf.count(TraceEventKind::kGossipSent), 0U);
}

TEST(TraceBuffer, PerKindCounts) {
  TraceBuffer buf{2};  // counts keep accumulating past ring capacity
  for (int i = 0; i < 5; ++i) {
    buf.record(make_event(TraceEventKind::kGossipSent, i));
  }
  buf.record(make_event(TraceEventKind::kSegmentDecoded, 9.0));
  EXPECT_EQ(buf.count(TraceEventKind::kGossipSent), 5U);
  EXPECT_EQ(buf.count(TraceEventKind::kSegmentDecoded), 1U);
}

TEST(TraceBuffer, ZeroCapacityStillCountsAndFilters) {
  TraceBuffer buf{0};
  buf.record(make_event(TraceEventKind::kGossipSent, 1.0));
  EXPECT_EQ(buf.size(), 0U);
  EXPECT_EQ(buf.accepted(), 1U);
  EXPECT_TRUE(buf.snapshot().empty());
}

TEST(TraceBuffer, JsonlStreamsAcceptedEvents) {
  const std::string path = testing::TempDir() + "obs_trace.jsonl";
  {
    TraceBuffer buf{4};
    buf.set_filter(kind_bit(TraceEventKind::kGossipSent));
    buf.open_jsonl(path);
    buf.record(make_event(TraceEventKind::kGossipSent, 1.5, 12));
    buf.record(make_event(TraceEventKind::kServerPull, 2.0));  // filtered
    buf.flush();
  }
  std::ifstream in{path};
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "{\"t\":1.5,\"kind\":\"gossip\",\"slot\":3,\"origin\":7,"
            "\"seq\":9,\"aux\":12}");
}

TEST(TraceEventJson, FormatsAllFields) {
  const auto json = trace_event_json(
      make_event(TraceEventKind::kGossipLost, 0.25, 42));
  EXPECT_EQ(json,
            "{\"t\":0.25,\"kind\":\"gossip-lost\",\"slot\":3,\"origin\":7,"
            "\"seq\":9,\"aux\":42}");
}

TEST(TraceBuffer, SinkAdapterRecords) {
  TraceBuffer buf{4};
  const icollect::proto::TraceSink sink = buf.sink();
  sink(make_event(TraceEventKind::kPeerDeparted, 3.0));
  EXPECT_EQ(buf.accepted(), 1U);
  EXPECT_EQ(buf.count(TraceEventKind::kPeerDeparted), 1U);
}

}  // namespace
