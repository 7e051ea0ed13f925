package main

import (
	"fmt"
	"net"

	"repro/internal/resp"
)

// verifierSelfTest proves the wire verifier catches wrong values. A fake
// server on a net.Pipe acknowledges a SET of k:00000001 and then answers
// four GETs of that key with: the right value, a value written for
// another key, the right value with one corrupted byte, and a value with
// a version no client sent. Exactly the first must pass.
func verifierSelfTest() error {
	t := &tenantShape{prefix: "k:", keys: 4, valueSize: 64}
	const version = 1<<8 | 1
	k1 := appendKey(nil, t.prefix, 1)
	good := appendValue(nil, k1, version, t.valueSize)
	corrupt := append([]byte(nil), good...)
	corrupt[40] ^= 1
	replies := [][]byte{
		good,
		appendValue(nil, appendKey(nil, t.prefix, 2), version, t.valueSize),
		corrupt,
		appendValue(nil, k1, version+1<<8, t.valueSize),
	}

	cli, srv := net.Pipe()
	defer cli.Close()
	served := make(chan error, 1)
	go func() { served <- fakeServer(srv, replies) }()

	c := &kvConn{nc: cli, r: newReplyReader(cli), w: resp.NewWriter(cli), t: t, led: newLedger(t.keys)}
	script := []request{{set: true, key: 1, version: version}, {key: 1}, {key: 1}, {key: 1}, {key: 1}}
	next := func() (request, bool) {
		if len(script) == 0 {
			return request{}, false
		}
		r := script[0]
		script = script[1:]
		return r, true
	}
	if _, err := c.batch(make([]request, 8), next); err != nil {
		return fmt.Errorf("verifier self-test: %w", err)
	}
	cli.Close()
	if err := <-served; err != nil {
		return fmt.Errorf("verifier self-test server: %w", err)
	}
	if c.cnt.hits != 1 || c.cnt.wrongValues != 3 || c.cnt.sets != 1 {
		return fmt.Errorf("verifier self-test: got %d hits, %d wrong values, %d sets; want 1, 3, 1",
			c.cnt.hits, c.cnt.wrongValues, c.cnt.sets)
	}
	return nil
}

// fakeServer acknowledges SETs and answers GETs with the planted replies
// in order, until the client hangs up.
func fakeServer(conn net.Conn, replies [][]byte) error {
	defer conn.Close()
	r, w := resp.NewReader(conn), resp.NewWriter(conn)
	for {
		args, err := r.ReadCommand()
		if err != nil {
			return nil // client hung up
		}
		switch string(args[0]) {
		case "SET":
			w.SimpleString("OK")
		case "GET":
			if len(replies) == 0 {
				return fmt.Errorf("unplanned GET")
			}
			w.Bulk(replies[0])
			replies = replies[1:]
		default:
			return fmt.Errorf("unexpected command %q", args[0])
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
	}
}

// determinismSelfTest checks that a workload's request stream is a pure
// function of the seed: the same seed hashes the same, the next seed
// differently. It returns the hash for the run's provenance.
func determinismSelfTest(sh kvShape, seed uint64) (uint64, error) {
	const n = 4096
	a, b, other := streamHash(sh, seed, n), streamHash(sh, seed, n), streamHash(sh, seed+1, n)
	if a != b {
		return a, fmt.Errorf("%s: seed %d hashed %#x then %#x", sh.name, seed, a, b)
	}
	if a == other {
		return a, fmt.Errorf("%s: seeds %d and %d give the same stream %#x", sh.name, seed, seed+1, a)
	}
	return a, nil
}
