package procpool

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"cfaopc/internal/geom"
	"cfaopc/internal/iox"
	"cfaopc/internal/quarantine"
)

// stubRunner echoes a primary-path reply after emitting one beat.
func stubRunner(_ context.Context, t *Task, sink Sink) Reply {
	sink(t.Bundle.Tile.Index, 1, 0.5)
	return Reply{
		Index: t.Bundle.Tile.Index,
		Shots: []geom.Circle{{X: 1, Y: 2, R: 3}},
		Path:  "primary",
	}
}

func testTask(index int) *Task {
	return &Task{Bundle: quarantine.Bundle{Tile: quarantine.Tile{Index: index}}}
}

func sendMsg(t *testing.T, w io.Writer, m *Message) {
	t.Helper()
	if err := WriteMessage(w, m); err != nil {
		t.Fatal(err)
	}
}

func readMsg(t *testing.T, r io.Reader) *Message {
	t.Helper()
	m, err := ReadMessage(r)
	if err != nil {
		t.Fatalf("read worker frame: %v", err)
	}
	return m
}

// TestServeTasks drives the worker loop over in-memory pipes: stray
// non-task frames are skipped (a future supervisor may send them),
// beats are forwarded before the reply, one reply per task, EOF = nil.
func TestServeTasks(t *testing.T) {
	coord, worker := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeTasks(worker, worker, stubRunner) }()

	sendMsg(t, coord, &Message{Ping: &Ping{}}) // not a task: skipped
	for _, index := range []int{3, 9} {
		sendMsg(t, coord, &Message{Task: testTask(index)})
		sawBeat := false
		for done := false; !done; {
			m := readMsg(t, coord)
			switch {
			case m.Ping != nil: // liveness while in flight; cadence untested
			case m.Beat != nil:
				sawBeat = true
			case m.Reply != nil:
				if m.Reply.Index != index || m.Reply.Path != "primary" {
					t.Fatalf("reply = %+v", m.Reply)
				}
				if !sawBeat {
					t.Fatal("reply before the forwarded beat")
				}
				done = true
			default:
				t.Fatalf("unexpected frame %+v", m)
			}
		}
	}
	coord.Close() // EOF: clean shutdown
	if err := <-served; err != nil {
		t.Fatalf("ServeTasks returned %v on clean EOF", err)
	}
}

// TestServeTasksCancelsAbandonedTask: a coordinator that cuts the link
// mid-task (silence kill, run cancel, partition) has abandoned the
// tile. The first ping that cannot be written must cancel the runner's
// context, so the host stops optimizing an orphan instead of finishing
// it.
func TestServeTasksCancelsAbandonedTask(t *testing.T) {
	coord, worker := net.Pipe()
	started := make(chan struct{})
	canceled := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- ServeTasks(worker, worker, func(ctx context.Context, t *Task, _ Sink) Reply {
			close(started)
			<-ctx.Done()
			close(canceled)
			return Reply{Index: t.Bundle.Tile.Index}
		})
	}()
	sendMsg(t, coord, &Message{Task: testTask(1)})
	<-started
	coord.Close()
	select {
	case <-canceled:
	case <-time.After(20 * pingEvery):
		t.Fatal("runner context still live long after the coordinator hung up")
	}
	if err := <-served; err == nil {
		t.Fatal("ServeTasks returned nil after losing its coordinator mid-task")
	}
}

// TestServeTasksSurfacesStreamErrors: a supervisor that writes garbage,
// tears a frame, or frames something that is not a Message is fatal to
// the worker loop — ServeTasks must return the error rather than spin.
func TestServeTasksSurfacesStreamErrors(t *testing.T) {
	for name, write := range map[string]func(w io.Writer){
		"unframed": func(w io.Writer) { w.Write([]byte("garbage, not a frame at all")) },
		"undecodable": func(w io.Writer) {
			frame, _ := iox.AppendFrame(nil, []byte("framed but not gob"), MaxFrameBytes)
			w.Write(frame)
		},
	} {
		t.Run(name, func(t *testing.T) {
			coord, worker := net.Pipe()
			served := make(chan error, 1)
			go func() { served <- ServeTasks(worker, worker, stubRunner) }()
			// Write from a goroutine: ServeTasks may reject the header
			// before draining the rest, stranding an unbuffered write.
			go func() {
				write(coord)
				coord.Close()
			}()
			if err := <-served; err == nil {
				t.Fatal("ServeTasks returned nil on a corrupt stream")
			}
		})
	}
}

func TestDecodeMessageRejectsMalformed(t *testing.T) {
	if _, err := DecodeMessage([]byte("not a gob stream")); err == nil {
		t.Error("garbage payload decoded")
	}
	// The one-of invariant: exactly one field set.
	for name, m := range map[string]*Message{
		"empty":    {},
		"two-of":   {Ping: &Ping{}, Beat: &Beat{Index: 1}},
		"three-of": {Hello: &Hello{}, Ping: &Ping{}, Reply: &Reply{}},
	} {
		payload, err := iox.EncodeGob(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := DecodeMessage(payload); err == nil {
			t.Errorf("%s message accepted", name)
		}
	}
}

// TestSpawnConn pins what Spawn promises of a child's stdin/stdout as a
// connection: bytes round-trip, the worker env is forced, CloseWrite is
// the child's stdin EOF, read deadlines fire on a mute child, and Close
// is SIGKILL plus reap.
func TestSpawnConn(t *testing.T) {
	cmd := exec.Command("sh", "-c", `echo "$`+WorkerEnv+`"; exec cat`)
	nc, err := Spawn(cmd)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if nc.LocalAddr().Network() != "pipe" || nc.RemoteAddr().String() != "pipe" {
		t.Fatalf("addrs = %v / %v", nc.LocalAddr(), nc.RemoteAddr())
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(nc, buf); err != nil || string(buf) != "1\n" {
		t.Fatalf("child saw %s=%q (err %v), want 1", WorkerEnv, buf, err)
	}
	if _, err := nc.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, 4)
	if _, err := io.ReadFull(nc, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo = %q, err %v", buf, err)
	}
	if err := nc.(interface{ CloseWrite() error }).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Read(buf); err != io.EOF {
		t.Fatalf("read after CloseWrite = %v, want the child's clean EOF", err)
	}

	// A child that never writes: the read deadline is what bounds a
	// handshake, and Close must kill and reap it rather than wait.
	mute := exec.Command("sleep", "60")
	nc2, err := Spawn(mute)
	if err != nil {
		t.Fatal(err)
	}
	nc2.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := nc2.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read on a mute child = %v, want the deadline", err)
	}
	nc2.SetWriteDeadline(time.Time{})
	nc2.Close()
	nc2.Close() // idempotent
	if mute.ProcessState == nil {
		t.Fatal("Close returned before the child was reaped")
	}

	if _, err := Spawn(exec.Command("/nonexistent/tileworker-binary")); err == nil {
		t.Fatal("Spawn of a missing binary succeeded")
	}
}
