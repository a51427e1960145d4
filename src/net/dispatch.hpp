// Static-dispatch registry for the hot Port pipeline.
//
// Port's per-packet path makes five virtual calls (scheduler on_enqueue /
// select / on_dequeue, marker on_enqueue / on_dequeue). The scheduler and
// marker zoos are closed, enumerable sets, so Port can recover the concrete
// type ONCE at construction and dispatch through a std::variant of concrete
// pointers instead: std::visit on a pointer-to-final-class is a direct,
// inlinable call, which is what lets the optimizer (especially under LTO)
// fold marker math straight into the port loop.
//
// The virtual interfaces remain the extension seam: the FIRST alternative
// of each variant is the plain base pointer. Port's constructor picks the
// alternative whose class is exactly the object's dynamic type (by typeid;
// every other alternative must be final) and falls back to the base
// pointer otherwise. A decorator, a test double or an out-of-tree
// scheduler works unchanged -- it just rides the virtual path (one extra
// indirect call). Adding an in-tree type to the fast path means adding it
// to the list below and its header to port.cpp; nothing else.
//
// This header deliberately uses only forward declarations and only
// port.hpp includes it, so net/ stays the bottom layer at compile time:
// sched/ and aqm/ still include net/ headers, never the reverse. The list
// below is the only place that enumerates the zoo; port.cpp includes the
// concrete headers to instantiate the visit (a closed-world upcall that
// lives in the .cpp, not in any interface header).
#pragma once

#include <variant>

namespace tcn::sched {
class AifoScheduler;
class DwrrScheduler;
class PifoScheduler;
class SpHybridScheduler;
class SpPifoScheduler;
class SpScheduler;
class WfqScheduler;
class WrrScheduler;
}  // namespace tcn::sched

namespace tcn::aqm {
class CodelMarker;
class HwTcnMarker;
class IdealRedMarker;
class MqEcnMarker;
class PieMarker;
class RedEcnMarker;
class RedProbabilisticMarker;
class TcnMarker;
class TcnProbabilisticMarker;
}  // namespace tcn::aqm

namespace tcn::net {

class Scheduler;
class FifoScheduler;
class Marker;
class NullMarker;

/// One alternative per concrete scheduler; Scheduler* (first) is the
/// virtual-dispatch fallback for every other subclass.
using SchedulerVariant = std::variant<Scheduler*,            //
                                      FifoScheduler*,        //
                                      sched::SpScheduler*,   //
                                      sched::DwrrScheduler*, //
                                      sched::WrrScheduler*,  //
                                      sched::WfqScheduler*,  //
                                      sched::SpHybridScheduler*,
                                      sched::PifoScheduler*,
                                      sched::SpPifoScheduler*,
                                      sched::AifoScheduler*>;

/// One alternative per concrete marker; Marker* (first) is the fallback.
using MarkerVariant = std::variant<Marker*,                         //
                                   NullMarker*,                     //
                                   aqm::TcnMarker*,                 //
                                   aqm::TcnProbabilisticMarker*,    //
                                   aqm::CodelMarker*,               //
                                   aqm::MqEcnMarker*,               //
                                   aqm::RedEcnMarker*,              //
                                   aqm::RedProbabilisticMarker*,    //
                                   aqm::PieMarker*,                 //
                                   aqm::IdealRedMarker*,            //
                                   aqm::HwTcnMarker*>;

}  // namespace tcn::net
