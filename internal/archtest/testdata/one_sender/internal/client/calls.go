package client

import "themisio/internal/transport"

func (c *Client) callAddr(addr string, req *transport.Request) (*transport.Response, error) {
	mc, err := c.pool(addr).Pick()
	if err != nil {
		return nil, err
	}
	return mc.Call(req)
}

// poolCall is a second way to pick a connection and call on it.
func (c *Client) poolCall(addr string, req *transport.Request) (*transport.Response, error) {
	mc, err := c.pool(addr).Pick()
	if err != nil {
		return nil, err
	}
	return mc.Call(req)
}
