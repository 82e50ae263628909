package main

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling thread in nanosleep(2). The runtime's own
// timers wake an idle process with millisecond granularity, which would
// make the generator run late by up to a millisecond on every request.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
