package sdpproto

import (
	"encoding/json"
	"net"
	"testing"
	"time"
)

// TestClientDropsLateReply: a server that answers the first request only
// after the client gave up must not hand that stale reply to the second
// request; the second Do gets its own answer.
func TestClientDropsLateReply(t *testing.T) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	timedOut := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, MaxDatagram)
		reply := func(to *net.UDPAddr, name string) {
			data, _ := json.Marshal(Response{OK: true, Error: "answer to " + name})
			if _, err := srv.WriteToUDP(data, to); err != nil {
				t.Errorf("reply to %s: %v", name, err)
			}
		}
		// The first request is answered late: after the client's timeout,
		// toward the socket that asked.
		n, first, err := srv.ReadFromUDP(buf)
		if err != nil {
			t.Error(err)
			return
		}
		var req Request
		_ = json.Unmarshal(buf[:n], &req)
		<-timedOut
		reply(first, req.Name)
		n, second, err := srv.ReadFromUDP(buf)
		if err != nil {
			t.Error(err)
			return
		}
		_ = json.Unmarshal(buf[:n], &req)
		reply(second, req.Name)
	}()

	c, err := Dial(srv.LocalAddr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(Request{Op: "stats", Name: "first"}); err == nil {
		t.Fatal("first request should time out")
	}
	close(timedOut)
	c.timeout = 5 * time.Second
	resp, err := c.Do(Request{Op: "stats", Name: "second"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "answer to second" {
		t.Fatalf("second Do read %q: a stale reply crossed requests", resp.Error)
	}
	<-done
}

// TestClientReusesSocket: successive requests leave from one source port.
func TestClientReusesSocket(t *testing.T) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ports := make(chan int, 3)
	go func() {
		defer close(ports)
		buf := make([]byte, MaxDatagram)
		for i := 0; i < 3; i++ {
			_, from, err := srv.ReadFromUDP(buf)
			if err != nil {
				t.Error(err)
				return
			}
			ports <- from.Port
			if _, err := srv.WriteToUDP([]byte(`{"ok":true}`), from); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	c, err := Dial(srv.LocalAddr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if resp, err := c.Do(Request{Op: "stats"}); err != nil || !resp.OK {
			t.Fatalf("Do %d: %+v, %v", i, resp, err)
		}
	}
	first := <-ports
	for p := range ports {
		if p != first {
			t.Fatalf("requests left from ports %d and %d", first, p)
		}
	}
}
