package telemetry

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeDropsStalledHeader checks the server's header deadline: a
// client that sends half a request header and stalls is disconnected
// within readHeaderTimeout, while a normal scrape still succeeds.
func TestServeDropsStalledHeader(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Counter("pera_test_total").Inc()
	srv, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: telemetry\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	// The server either closes silently or answers 408 and closes; the
	// read loop ends at EOF either way, and must not hit our deadline.
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled header still open after %v", time.Since(start))
	}
	if took := time.Since(start); took > readHeaderTimeout+2*time.Second {
		t.Fatalf("stalled header closed after %v, want about %v", took, readHeaderTimeout)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d, err %v", resp.StatusCode, err)
	}
	if want := "pera_test_total 1"; !strings.Contains(string(body), want) {
		t.Fatalf("scrape body lacks %q:\n%s", want, body)
	}
}
