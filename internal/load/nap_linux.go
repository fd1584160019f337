//go:build linux

package load

import (
	"syscall"
	"time"
)

// nap sleeps for d in nanosleep(2), not time.Sleep: an otherwise idle Go
// runtime wakes timer sleepers at a millisecond's granularity, while
// nanosleep wakes within tens of microseconds, and the runtime hands the
// blocked thread's processor to the senders meanwhile.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
