package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"expensive/internal/adversary"
)

// tinyJob is a one-unit hunt that finishes in milliseconds.
func tinyJob() *Job {
	j := huntJob()
	j.Hunt.Seeds = adversary.SeedRange{From: 0, To: 4}
	j.Hunt.Units = 1
	return j
}

// TestDistLateJoinerReleased: a worker whose handshake lands after the
// campaign's last unit already holds the job, so the coordinator must
// send it done instead of leaving it blocked forever.
func TestDistLateJoinerReleased(t *testing.T) {
	c := &Coordinator{Job: tinyJob(), LocalWorkers: 1, WorkerParallelism: 1}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Run has closed its listener; a fresh one stands in for a dial that
	// was accepted just before the close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go c.sched.acceptLoop(ln)
	w := &Worker{Addr: ln.Addr().String(), Name: "late", Parallelism: 1}
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("late worker: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("late worker still waiting for work 10s after the campaign ended")
	}
}

// TestDistJoinQueuedAtShutdownReleased: a join posted after execute
// returned but before shutdown sits in the event buffer where no
// scheduler will take it up; shutdown must release that worker too.
func TestDistJoinQueuedAtShutdownReleased(t *testing.T) {
	s := newScheduler(context.Background(), tinyJob(), 5*time.Second, 0, 3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.acceptLoop(ln)

	conn, err := Dial(ln.Addr().String(), 3, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&Message{Kind: MsgHello, Hello: &Hello{Version: ProtocolVersion, Name: "queued"}}); err != nil {
		t.Fatal(err)
	}
	if m, err := conn.Recv(5 * time.Second); err != nil || m.Kind != MsgJob {
		t.Fatalf("expected the job, got %v, %v", m, err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(s.events) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("join never posted")
		}
		time.Sleep(time.Millisecond)
	}
	s.shutdown()
	if m, err := conn.Recv(5 * time.Second); err != nil || m.Kind != MsgDone {
		t.Fatalf("queued worker: expected done, got %v, %v", m, err)
	}
}

// TestDistOversizePreHelloRejected: before a hello admits it, a
// connection may not declare a frame beyond maxHelloFrame. The
// coordinator closes it with an error at once and never allocates the
// declared body.
func TestDistOversizePreHelloRejected(t *testing.T) {
	c := &Coordinator{Job: tinyJob(), HeartbeatTimeout: 30 * time.Second}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.shutdown()
	raw, err := net.Dial("tcp", c.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	const declared = maxFrame / 2 // legal after the handshake, not before it
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], declared)
	if _, err := raw.Write(prefix[:]); err != nil {
		t.Fatal(err)
	}
	if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := raw.Read(b[:]); !errors.Is(err, io.EOF) {
		t.Fatalf("coordinator did not close the oversize pre-hello connection: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > declared/8 {
		t.Errorf("coordinator allocated %d bytes for a rejected %d-byte frame", grown, declared)
	}
}
