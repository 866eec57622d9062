package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
)

// conn is one client connection: HTTP/1.1 keep-alive over loopback, spoken
// by hand so the client allocates almost nothing per request. The client
// runs in the server's process; with net/http's client the process
// allocated ~80 objects a request, most of them the client's, and that
// garbage paced the server's GC. A mark phase holds one of the two Ps for
// ~5 ms, and how often that happened set poi-query's p99.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte // request buffer, reused
	body []byte // response body, reused: valid until the next round trip
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// roundTrip sends q (tagged with traceID when it is >= 0) and reads the
// whole response. After an error the connection is dropped and the next
// round trip dials afresh.
func (c *conn) roundTrip(q *request, traceID int) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	b := c.req[:0]
	if q.body != nil {
		b = append(b, "POST "...)
	} else {
		b = append(b, "GET "...)
	}
	b = append(b, q.url...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	b = append(b, "\r\n"...)
	if traceID >= 0 {
		b = append(b, traceHeader+": "...)
		b = strconv.AppendInt(b, int64(traceID), 10)
		b = append(b, "\r\n"...)
	}
	if q.body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(q.body)), 10)
		b = append(b, "\r\n\r\n"...)
		b = append(b, q.body...)
	} else {
		b = append(b, "\r\n"...)
	}
	c.req = b
	status, body, err := c.send(b)
	if err != nil {
		c.close()
	}
	return status, body, err
}

func (c *conn) send(b []byte) (int, []byte, error) {
	if _, err := c.c.Write(b); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				_, err = c.br.Discard(2) // the CRLF closing a trailer-free body
				return status, c.body, err
			}
			if err := c.read(int(n)); err != nil {
				return 0, nil, err
			}
			if _, err := c.br.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		return status, c.body, c.read(length)
	}
	return 0, nil, fmt.Errorf("response has neither Content-Length nor chunked framing")
}

// read appends the next n body bytes to c.body.
func (c *conn) read(n int) error {
	off := len(c.body)
	c.body = append(c.body, make([]byte, n)...)
	_, err := io.ReadFull(c.br, c.body[off:])
	return err
}
