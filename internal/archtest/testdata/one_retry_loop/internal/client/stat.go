package client

import "time"

func (c *Client) statRetry(path string) (info, error) {
	for {
		fi, err := c.statOnce(path)
		if err != errStale {
			return fi, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *Client) writeRetry(path string, p []byte) error {
	for c.write(path, p) == errStale {
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}
