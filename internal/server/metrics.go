package server

import (
	"sketchprivacy/internal/obs"
)

// RegisterMetrics registers the connection loop's instrument families on
// reg — the same ones on a node and on a router's client port.  Everything
// here reads counters the loop already keeps (the robustness counters, the
// in-flight semaphore) at render time, so serving pays nothing beyond the
// existing atomics.  Call once, before the endpoint starts listening.
func (e *endpoint) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("server_inflight", "Frames currently executing under the in-flight guard.",
		func() float64 { return float64(len(e.inflight)) })
	reg.GaugeFunc("server_inflight_limit", "Configured MaxInFlight frame-execution limit.",
		func() float64 { return float64(cap(e.inflight)) })
	reg.CounterFunc("server_frames_total", "Frames served (all message types, including refused ones).",
		e.frames.Load)
	reg.CounterFunc("server_overloads_total", "Frames shed by the in-flight guard.",
		e.overloads.Load)
	reg.CounterFunc("server_idle_closes_total", "Connections closed by the read-idle timeout.",
		e.idleCloses.Load)
	reg.CounterFunc("server_checksum_errors_total", "Frames refused with a CRC mismatch.",
		e.checksumErrors.Load)
}

// RegisterMetrics registers the loop's families and the two a node adds:
// abandoned plans and the observed ring epoch.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	s.endpoint.RegisterMetrics(reg)
	reg.CounterFunc("server_deadline_abandons_total", "Plan executions abandoned mid-run on budget expiry.",
		s.deadlineAbandons.Load)
	reg.GaugeFunc("server_ring_epoch", "Highest ring epoch this node has observed.",
		func() float64 { return float64(s.epoch.Load()) })
}
