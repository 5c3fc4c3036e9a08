package sdpproto

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"
)

// Client speaks the protocol to one daemon over one connected UDP
// socket, reused across calls. It is not safe for concurrent use: two
// goroutines sharing the socket could read each other's replies, so
// concurrent callers hold one Client each.
type Client struct {
	addr    string
	timeout time.Duration
	conn    *net.UDPConn // nil after a timeout until the next Do redials
	buf     []byte
}

// Dial resolves addr and opens the client's socket. Every Do waits at
// most timeout for its reply.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	c := &Client{addr: addr, timeout: timeout, buf: make([]byte, 64*1024)}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) redial() error {
	ra, err := net.ResolveUDPAddr("udp", c.addr)
	if err != nil {
		return err
	}
	c.conn, err = net.DialUDP("udp", nil, ra)
	return err
}

// Do sends one request and returns the daemon's reply, failed ops
// included (check Response.OK); the error reports transport and decode
// failures only. After a timeout the socket is dropped and the next Do
// dials a fresh one, so a late reply can never be read as the answer to
// a later request.
func (c *Client) Do(req Request) (*Response, error) {
	if c.conn == nil {
		if err := c.redial(); err != nil {
			return nil, err
		}
	}
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(data); err != nil {
		return nil, err
	}
	n, err := c.conn.Read(c.buf)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			_ = c.conn.Close() // the socket is abandoned either way
			c.conn = nil
		}
		return nil, fmt.Errorf("waiting for reply: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(c.buf[:n], &resp); err != nil {
		return nil, fmt.Errorf("malformed reply: %w", err)
	}
	return &resp, nil
}

// Close releases the socket.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// Send is the one-shot form for callers with a single request: dial,
// Do, close.
func Send(addr string, timeout time.Duration, req Request) (*Response, error) {
	c, err := Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Do(req)
}
