// Package sim provides the discrete-event timing substrate used by the SSD
// simulator: a simulated clock, resource busy-timelines, and a small event
// queue. It is the Go equivalent of the scheduling core of
// DiskSim3.0/FlashSim that the DLOOP paper extends.
//
// The central modelling idea is the resource timeline: every hardware unit
// that can serve only one operation at a time (a plane's cell array, a
// chip's serial I/O bus, a channel) carries a "free at" timestamp. An
// operation that needs a set of resources starts at the maximum of its own
// ready time and the resources' free times, and advances each occupied
// resource's timeline by the phase during which it holds it. Requests that
// target disjoint resources therefore overlap in simulated time with no
// explicit parallelism bookkeeping, which is exactly how plane-level
// parallelism manifests in the paper's simulator.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. Nanoseconds give ample headroom: 2^63 ns is roughly 292 years.
type Time int64

// Duration is a span of simulated time in nanoseconds. It is deliberately a
// distinct type from Time so that the compiler rejects point/span mixups.
type Duration int64

// Common unit constants for building durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add advances a time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the duration in seconds as a float.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration in milliseconds as a float, the unit the
// paper's figures use for mean response time.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds reports the duration in microseconds as a float.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

func (t Time) String() string {
	return fmt.Sprintf("t+%s", time.Duration(t))
}

// Microseconds builds a Duration from a (possibly fractional) count of
// microseconds, the natural unit of NAND datasheets.
func Microseconds(us float64) Duration {
	return Duration(us * float64(Microsecond))
}
