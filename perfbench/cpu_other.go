//go:build !linux

package main

import "time"

var processStart = time.Now()

// threadCPU falls back to the wall clock where the thread CPU clock is not
// wired up, so attempt times include time the host took the CPU away.
func threadCPU() time.Duration { return time.Since(processStart) }
