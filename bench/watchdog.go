package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// dumpWedge writes what an operator needs to see why a cluster is stuck —
// every goroutine's stack, and the hub's peer liveness table with outbox
// depths — under dir, and returns the file's path (or why it could not be
// written). cl may be nil when no cluster is at hand.
func dumpWedge(dir, workload string, cl *liveCluster) string {
	path := filepath.Join(dir, "wedge-"+workload+".txt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err.Error()
	}
	f, err := os.Create(path)
	if err != nil {
		return err.Error()
	}
	defer f.Close()
	fmt.Fprintf(f, "workload %s wedged at %s\n\n", workload, time.Now().Format(time.RFC3339))
	if cl != nil && cl.lb != nil {
		fmt.Fprintln(f, "hub PeerHealth():")
		for _, p := range cl.lb.Sys.PeerHealth() {
			fmt.Fprintf(f, "  %v%d state=%v connected=%v gen=%d missed=%d outbox=%d\n",
				p.Role, p.ID, p.State, p.Connected, p.Gen, p.Missed, p.OutboxDepth)
		}
		fmt.Fprintln(f)
	}
	_ = pprof.Lookup("goroutine").WriteTo(f, 2)
	return path
}
