package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/faultinject"
	"repro/internal/server"
)

// TestStatusIgnoresFencedOwner is the regression test for the zombie
// status leak: a fenced node keeps running the job it held, its next
// journal write bounces off the fence, and it fails the job locally
// with ErrFenced. That failure is an artifact of the fence — the job's
// real answer comes from the re-homed copy — so the coordinator must
// neither report it nor cache it as the job's result, even while the
// handoff is still in flight and the assignment still names the fenced
// node.
func TestStatusIgnoresFencedOwner(t *testing.T) {
	// An hour-long heartbeat period keeps the sweep out of the way: the
	// test fences by hand, at a point it chooses.
	c := New(Config{HeartbeatEvery: time.Hour, Logf: t.Logf})
	ts := httptest.NewServer(c.Handler())
	defer func() {
		ts.Close()
		c.Close()
	}()

	blocker := faultinject.BlockAt(1)
	defer blocker.Release()
	n1 := startNode(t, "n1", ts.URL, server.Config{
		JournalDir: t.TempDir(),
		BoardHook:  func(b *board.Board) { b.Interpose(blocker) },
		Logf:       t.Logf,
	}, nil, nil)
	waitFor(t, 10*time.Second, func() bool { return len(c.Nodes()) == 1 }, "node never joined")

	st := submit(t, ts.URL, buildSpec(t, 1))
	waitFor(t, 10*time.Second, blocker.Fired, "job never started routing")

	// Fence n1 exactly as the sweep does, then take the recovered record
	// off the pending list the way deliverPending does while a handoff
	// is in flight: the coordinator now has no answer of its own, and
	// the assignment still names the fenced node.
	c.mu.Lock()
	n := c.nodes["n1"]
	n.Fenced = true
	c.mu.Unlock()
	c.fence(n)
	c.mu.Lock()
	var inFlight bool
	for _, rec := range c.pending {
		inFlight = inFlight || rec.ID == st.ID
	}
	c.pending = nil
	c.mu.Unlock()
	if !inFlight {
		t.Fatalf("fencing did not recover %s for handoff", st.ID)
	}

	// Let the zombie run into the fence.
	blocker.Release()
	waitFor(t, 10*time.Second, func() bool {
		zst, ok := n1.srv.Status(st.ID)
		return ok && zst.State == server.StateFailed
	}, "zombie never failed its job")
	if zst, _ := n1.srv.Status(st.ID); !strings.Contains(zst.Error, server.ErrFenced.Error()) {
		t.Fatalf("zombie failed for another reason: %q", zst.Error)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /jobs/%s = %d, want 503 while the handoff is in flight", st.ID, resp.StatusCode)
	}
	c.mu.Lock()
	cached, ok := c.results[st.ID]
	c.mu.Unlock()
	if ok {
		t.Errorf("coordinator cached the fenced node's status: %+v", cached)
	}
}
