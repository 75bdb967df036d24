//go:build !linux

package main

import "time"

// dueTimer without a timerfd: see duetimer_linux.go.
type dueTimer struct{}

func newDueTimer() *dueTimer { return &dueTimer{} }

func (*dueTimer) sleepUntil(at time.Time) { time.Sleep(time.Until(at)) }

func (*dueTimer) close() {}
