package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// dueTimer is what the open-loop dispatcher sleeps on. time.Sleep on a
// runtime with idle Ps wakes through epoll_wait's millisecond timeout, 0–1 ms
// late — a quarter of the cached workload's median latency would be the
// generator's own. A timerfd read through the netpoller is woken by the
// kernel's high-resolution timer (≈ 50 us late on an idle runtime), holds no
// P and burns no CPU while it waits. What remains is the wait for a P when
// both are busy, which the engine's own goroutines share.
type dueTimer struct {
	f *os.File // nil: timerfd unavailable, fall back to time.Sleep
}

type itimerspec struct{ interval, value syscall.Timespec }

func newDueTimer() *dueTimer {
	const clockMonotonic, tfdNonblock = 1, 0x800
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock, 0)
	if errno != 0 {
		return &dueTimer{}
	}
	return &dueTimer{f: os.NewFile(fd, "timerfd")} // non-blocking, so the netpoller waits on it
}

func (t *dueTimer) sleepUntil(at time.Time) {
	d := time.Until(at)
	if d <= 0 {
		return
	}
	if t.f != nil {
		its := itimerspec{value: syscall.NsecToTimespec(int64(d))} // one shot, relative
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.f.Fd(), 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
		var expirations [8]byte
		if errno == 0 {
			if _, err := t.f.Read(expirations[:]); err == nil {
				return
			}
		}
		d = time.Until(at)
	}
	time.Sleep(d)
}

func (t *dueTimer) close() {
	if t.f != nil {
		t.f.Close()
	}
}
