//go:build !amd64

package main

import "runtime"

// cpuModel names the architecture where no brand string is read.
func cpuModel() string { return runtime.GOARCH }
