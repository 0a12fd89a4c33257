// Command dtworker is the dedicated distributed-simulation worker: it
// speaks the supervisor's binary frame protocol over stdin/stdout and
// does nothing else. A distributed session spawns it with
//
//	dtsim -workers 4 -worker-bin /path/to/dtworker ...
//
// or programmatically via dtmsvs.WithWorkerProcesses("dtworker").
// Everything about the run — configuration, shard assignment, resume
// state, fault schedule — arrives over the wire in the hello frame,
// so the binary takes no flags. Exit status is 0 after an orderly
// shutdown frame and 1 after a protocol or engine error (the
// supervisor treats either death the same way: restart from the last
// shipped checkpoint and replay the boundaries since).
package main

import (
	"fmt"
	"os"

	"dtmsvs"
)

func main() {
	if err := dtmsvs.RunWorker(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dtworker:", err)
		os.Exit(1)
	}
}
