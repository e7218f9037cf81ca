package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction (cpuid_amd64.s).
func cpuid(eax, ecx uint32) (a, b, c, d uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002-0x80000004. The benchmark reads and writes only inside
// its checkout, so /proc/cpuinfo is out of bounds; the standard
// library keeps its own CPU name internal, hence the assembly stub.
func cpuModel() string {
	if top, _, _, _ := cpuid(0x80000000, 0); top < 0x80000004 {
		return "amd64 (no brand string)"
	}
	var buf []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, b, c, d := cpuid(leaf, 0)
		for _, reg := range []uint32{a, b, c, d} {
			buf = binary.LittleEndian.AppendUint32(buf, reg)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(buf), "\x00"))
}
