package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// relay is a loopback TCP hop between dist workers and a coordinator.
// It copies the 4-byte length-prefixed frames unchanged in both
// directions and observes them: the job frame closes a worker's
// handshake, and each unit frame opens a round trip that the worker's
// result (or failure) frame closes.
type relay struct {
	ln     net.Listener
	target string

	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
	links []*link
}

// link is one worker connection's observations.
type link struct {
	mu        sync.Mutex
	accepted  time.Time
	handshake time.Duration
	unitSent  time.Time
	rtts      []rtt
	frames    int
	bytes     int64
}

type rtt struct{ start, end time.Time }

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay: listen: %w", err)
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) Addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		w, err := r.ln.Accept()
		if err != nil {
			return
		}
		l := &link{accepted: time.Now()}
		c, err := net.Dial("tcp", r.target)
		if err != nil {
			w.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, w, c)
		r.links = append(r.links, l)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pump(w, c, l, true)
		go r.pump(c, w, l, false)
	}
}

// pump copies frames from src to dst until either side closes; up is the
// worker-to-coordinator direction. Closing both ends on exit unblocks the
// opposite pump.
func (r *relay) pump(src, dst net.Conn, l *link, up bool) {
	defer r.wg.Done()
	defer src.Close()
	defer dst.Close()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(src, body); err != nil {
			return
		}
		l.observe(frameKind(body), up, len(body)+len(hdr))
		if _, err := dst.Write(append(hdr[:], body...)); err != nil {
			return
		}
	}
}

func (l *link) observe(kind string, up bool, size int) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frames++
	l.bytes += int64(size)
	switch {
	case !up && kind == "job":
		l.handshake = now.Sub(l.accepted)
	case !up && kind == "unit":
		l.unitSent = now
	case up && (kind == "result" || kind == "unit_failed") && !l.unitSent.IsZero():
		l.rtts = append(l.rtts, rtt{l.unitSent, now})
		l.unitSent = time.Time{}
	}
}

var kindPrefix = []byte(`{"kind":"`)

// frameKind reads the message kind, which the wire encoding puts first.
func frameKind(body []byte) string {
	if !bytes.HasPrefix(body, kindPrefix) {
		return ""
	}
	rest := body[len(kindPrefix):]
	if i := bytes.IndexByte(rest, '"'); i >= 0 {
		return string(rest[:i])
	}
	return ""
}

// Close stops accepting, closes every relayed connection, and waits for
// the pumps to exit.
func (r *relay) Close() error {
	err := r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	return err
}

// Links returns the per-worker observations (call after Close).
func (r *relay) Links() []*link {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*link(nil), r.links...)
}
