// Tracing tests: event emission from the port pipeline, filters and caps,
// tee fan-out.
#include <gtest/gtest.h>

#include <memory>

#include "aqm/tcn.hpp"
#include "net/fifo_scheduler.hpp"
#include "net/port.hpp"
#include "sim/simulator.hpp"
#include "stats/tracer.hpp"
#include "test_util.hpp"

namespace tcn::stats {
namespace {

using test::CaptureNode;
using test::make_test_packet;
using test::RecordingTracer;

struct Rig {
  explicit Rig(std::uint64_t buffer = UINT64_MAX,
               std::unique_ptr<net::Marker> marker = nullptr) {
    net::PortConfig cfg;
    cfg.rate_bps = 1'000'000'000;
    cfg.buffer_bytes = buffer;
    if (!marker) marker = std::make_unique<net::NullMarker>();
    port = std::make_unique<net::Port>(sim, "sw0.p1", cfg,
                                       std::make_unique<net::FifoScheduler>(),
                                       std::move(marker));
    port->connect(&sink, 0);
  }
  sim::Simulator sim;
  CaptureNode sink;
  std::unique_ptr<net::Port> port;
};

TEST(Trace, EnqueueAndDequeuePairs) {
  Rig rig;
  RecordingTracer tracer;
  rig.port->set_observer(&tracer);
  for (int i = 0; i < 5; ++i) {
    rig.port->enqueue(make_test_packet(1500, 0, i), 0);
  }
  rig.sim.run();
  EXPECT_EQ(tracer.count(net::TraceEvent::kEnqueue), 5u);
  EXPECT_EQ(tracer.count(net::TraceEvent::kDequeue), 5u);
  EXPECT_EQ(tracer.count(net::TraceEvent::kDrop), 0u);
  // Port name and monotone timestamps.
  sim::Time last = -1;
  for (const auto& r : tracer.records()) {
    EXPECT_EQ(r.port, "sw0.p1");
    EXPECT_GE(r.t, last);
    last = r.t;
  }
}

TEST(Trace, DropEventsCarryQueueState) {
  Rig rig(/*buffer=*/2'000);
  RecordingTracer tracer;
  rig.port->set_observer(&tracer);
  rig.port->enqueue(make_test_packet(1500, 0, 1), 0);  // in service
  rig.port->enqueue(make_test_packet(1500, 0, 2), 0);  // buffered
  rig.port->enqueue(make_test_packet(1500, 0, 3), 0);  // dropped
  rig.sim.run();
  ASSERT_EQ(tracer.count(net::TraceEvent::kDrop), 1u);
  for (const auto& r : tracer.records()) {
    if (r.event == net::TraceEvent::kDrop) {
      EXPECT_EQ(r.flow, 3u);
      EXPECT_EQ(r.port_bytes, 1'500u);  // state at the drop
    }
  }
}

TEST(Trace, MarkEventsFromTcn) {
  Rig rig(UINT64_MAX,
          std::make_unique<aqm::TcnMarker>(10 * sim::kMicrosecond));
  RecordingTracer tracer;
  rig.port->set_observer(&tracer);
  // 20 back-to-back packets: the tail waits >10us, so late ones get marked.
  for (int i = 0; i < 20; ++i) {
    rig.port->enqueue(make_test_packet(1500, 0, i), 0);
  }
  rig.sim.run();
  EXPECT_GT(tracer.count(net::TraceEvent::kMark), 0u);
  EXPECT_EQ(tracer.count(net::TraceEvent::kMark),
            rig.port->counters().marks);
}

TEST(Trace, FilterAndCap) {
  Rig rig;
  RecordingTracer only_flow7(/*max=*/3, [](const net::TraceRecord& r) {
    return r.flow == 7;
  });
  rig.port->set_observer(&only_flow7);
  for (int i = 0; i < 10; ++i) {
    rig.port->enqueue(make_test_packet(1500, 0, i % 2 == 0 ? 7 : 9), 0);
  }
  rig.sim.run();
  // 5 packets of flow 7 produce 10 events (enq+deq); cap keeps 3.
  EXPECT_EQ(only_flow7.records().size(), 3u);
  EXPECT_EQ(only_flow7.overflow(), 7u);
  for (const auto& r : only_flow7.records()) EXPECT_EQ(r.flow, 7u);
}

TEST(Trace, TeeFansOut) {
  Rig rig;
  RecordingTracer a, b;
  TeeObserver tee({&a, &b});
  rig.port->set_observer(&tee);
  rig.port->enqueue(make_test_packet(1500, 0, 1), 0);
  rig.sim.run();
  EXPECT_EQ(a.records().size(), b.records().size());
  EXPECT_EQ(a.records().size(), 2u);  // enq + deq
}

TEST(Trace, DetachStopsEvents) {
  Rig rig;
  RecordingTracer tracer;
  rig.port->set_observer(&tracer);
  rig.port->enqueue(make_test_packet(1500, 0, 1), 0);
  rig.port->set_observer(nullptr);
  rig.port->enqueue(make_test_packet(1500, 0, 2), 0);
  rig.sim.run();
  for (const auto& r : tracer.records()) EXPECT_EQ(r.flow, 1u);
}

}  // namespace
}  // namespace tcn::stats
