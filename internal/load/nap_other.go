//go:build !linux

package load

import "time"

// nap sleeps for d; nanosleep(2) is the Linux pacer's clock.
func nap(d time.Duration) { time.Sleep(d) }
