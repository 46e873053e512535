//go:build !linux

// The harness reads the server child's CPU time and peak memory from
// /proc, so it runs on Linux only.
package main

import (
	"fmt"
	"os"
)

func main() {
	fmt.Fprintln(os.Stderr, "bench: this benchmark needs Linux (/proc)")
	os.Exit(2)
}
