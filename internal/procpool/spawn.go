package procpool

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Spawn starts cmd as a tile worker and returns its stdin/stdout as one
// connection, so a subprocess is just another thing a session dials.
// WorkerEnv=1 is forced into the child's environment (wire stderr
// yourself for diagnostics). Close is SIGKILL plus reap — the process
// is dead when it returns — and CloseWrite closes the child's stdin,
// which a serving worker takes as its clean shutdown.
func Spawn(cmd *exec.Cmd) (net.Conn, error) {
	if cmd.Env == nil {
		cmd.Env = os.Environ()
	}
	cmd.Env = append(cmd.Env, WorkerEnv+"=1")
	stdin, toChild, err := os.Pipe()
	if err != nil {
		return nil, fmt.Errorf("procpool: %w", err)
	}
	fromChild, stdout, err := os.Pipe()
	if err != nil {
		stdin.Close()
		toChild.Close()
		return nil, fmt.Errorf("procpool: %w", err)
	}
	cmd.Stdin, cmd.Stdout = stdin, stdout
	err = cmd.Start()
	stdin.Close() // the child holds its own copies
	stdout.Close()
	if err != nil {
		toChild.Close()
		fromChild.Close()
		return nil, fmt.Errorf("procpool: start worker: %w", err)
	}
	var once sync.Once
	return &pipeConn{r: fromChild, w: toChild, close: func() {
		once.Do(func() {
			cmd.Process.Kill()
			cmd.Wait()
			toChild.Close()
			fromChild.Close()
		})
	}}, nil
}

// Stdio is the worker's end of a Spawn connection: this process's own
// stdin and stdout.
func Stdio() net.Conn {
	return &pipeConn{r: os.Stdin, w: os.Stdout, close: func() {
		os.Stdin.Close()
		os.Stdout.Close()
	}}
}

// pipeConn presents a read pipe and a write pipe as one net.Conn, so
// the session code written against TCP serves stdin/stdout unchanged.
// Deadlines work where the pipe is pollable (the parent's ends always
// are) and report os.ErrNoDeadline elsewhere.
type pipeConn struct {
	r, w  *os.File
	close func()
}

func (c *pipeConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *pipeConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *pipeConn) CloseWrite() error           { return c.w.Close() }
func (c *pipeConn) LocalAddr() net.Addr         { return pipeAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr        { return pipeAddr{} }

func (c *pipeConn) Close() error {
	c.close()
	return nil
}

func (c *pipeConn) SetDeadline(t time.Time) error {
	c.w.SetWriteDeadline(t)
	return c.r.SetReadDeadline(t)
}
func (c *pipeConn) SetReadDeadline(t time.Time) error  { return c.r.SetReadDeadline(t) }
func (c *pipeConn) SetWriteDeadline(t time.Time) error { return c.w.SetWriteDeadline(t) }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
