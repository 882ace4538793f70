package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"jackpine/internal/driver"
)

// Client is a driver.Connector that dials a wire server.
type Client struct {
	addr string
	name string
}

// NewClient creates a connector for the server at addr. The name labels
// the target in benchmark output.
func NewClient(addr, name string) *Client {
	return &Client{addr: addr, name: name}
}

// Name implements driver.Connector.
func (c *Client) Name() string { return c.name }

// Connect implements driver.Connector. It dials without a deadline;
// callers that need cancellation use ConnectContext.
func (c *Client) Connect() (driver.Conn, error) {
	return c.ConnectContext(context.Background())
}

// ConnectContext dials the server under ctx, so the caller's
// cancellation and deadline bound the TCP handshake.
func (c *Client) ConnectContext(ctx context.Context) (driver.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	return &clientConn{conn: conn}, nil
}

type clientConn struct {
	mu   sync.Mutex // one in-flight request per connection
	conn net.Conn
}

// roundTrip sends a request and reads its response frame.
func (c *clientConn) roundTrip(op byte, query string) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return 0, nil, fmt.Errorf("wire: connection is closed")
	}
	if err := writeFrame(c.conn, op, []byte(query)); err != nil {
		// A server refusing the session (connection limit) writes an
		// error frame and closes without reading, so the request can hit
		// a reset socket. The refusal is already buffered: surface it
		// rather than the write error.
		if rop, payload, rerr := readFrame(c.conn); rerr == nil && rop == opError {
			return rop, payload, nil
		}
		return 0, nil, err
	}
	return readFrame(c.conn)
}

// Exec implements driver.Conn.
func (c *clientConn) Exec(query string) (int, error) {
	op, payload, err := c.roundTrip(opExec, query)
	if err != nil {
		return 0, err
	}
	switch op {
	case opAck:
		if len(payload) != 4 {
			return 0, fmt.Errorf("wire: bad ack payload")
		}
		return int(binary.LittleEndian.Uint32(payload)), nil
	case opError:
		return 0, fmt.Errorf("%s", payload)
	default:
		return 0, fmt.Errorf("wire: unexpected response op %q", op)
	}
}

// Query implements driver.Conn.
func (c *clientConn) Query(query string) (*driver.ResultSet, error) {
	op, payload, err := c.roundTrip(opQuery, query)
	if err != nil {
		return nil, err
	}
	switch op {
	case opRows:
		cols, rows, err := decodeRows(payload)
		if err != nil {
			return nil, err
		}
		return &driver.ResultSet{Columns: cols, Rows: rows}, nil
	case opError:
		return nil, fmt.Errorf("%s", payload)
	default:
		return nil, fmt.Errorf("wire: unexpected response op %q", op)
	}
}

// Close implements driver.Conn.
func (c *clientConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
