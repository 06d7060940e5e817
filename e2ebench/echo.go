package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"
)

// The shared host's loopback latency drifts by a third or more within
// minutes, and it moves every request's latency with it. So the hit
// loop pairs each request with a round trip of echoBytes over loopback
// TCP to an echo process (this binary, run with -worker echo), and the
// hit metrics are the request latency relative to the echo round trips
// made alongside it, expressed at a reference echo round trip of
// refEchoUs. The echo process is the benchmark's own code, so a change
// to the repository does not move it.
const (
	// refEchoUs is about the median paired echo round trip on the
	// reference host, a shared 2-vCPU VM.
	refEchoUs = 40.0
	// echoBytes is the size of one echo message.
	echoBytes = 1024
)

// echoProc is a running echo process.
type echoProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	addr string
}

// startEcho starts this binary as an echo process and reads its address.
func startEcho() (*echoProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-worker", "echo")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	e := &echoProc{cmd: cmd, in: in}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		_ = e.stop()
		return nil, fmt.Errorf("no address: %w", err)
	}
	e.addr = strings.TrimSpace(line)
	return e, nil
}

// stop ends the echo process, if there is one, and waits for it.
func (e *echoProc) stop() error {
	if e == nil {
		return nil
	}
	_ = e.in.Close() // the echo process exits at end of input
	return e.cmd.Wait()
}

// echoMain runs inside the echo process: it prints its loopback address,
// then echoes every connection's bytes back until its standard input
// closes.
func echoMain() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if _, err := fmt.Println(ln.Addr()); err != nil {
		return err
	}
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		_ = ln.Close()
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			return nil // the listener closed at end of input
		}
		go func() {
			defer func() { _ = c.Close() }()
			_, _ = io.Copy(c, c)
		}()
	}
}

// echoConn is one client connection to the echo process.
type echoConn struct {
	c         net.Conn
	msg, back []byte
}

func dialEcho(addr string) (*echoConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &echoConn{c: c, msg: make([]byte, echoBytes), back: make([]byte, echoBytes)}, nil
}

// roundTrip sends one message and reads it back.
func (e *echoConn) roundTrip() (time.Duration, error) {
	start := time.Now()
	if _, err := e.c.Write(e.msg); err != nil {
		return 0, err
	}
	_, err := io.ReadFull(e.c, e.back)
	return time.Since(start), err
}

func (e *echoConn) close() error { return e.c.Close() }
