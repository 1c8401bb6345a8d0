package client

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"themisio/internal/fsys"
	"themisio/internal/transport"
)

// createSet picks the stripe servers for a new file: the ring's ranking,
// skipping draining members when enough non-draining servers remain.
// The chosen set is recorded in the file metadata, so every later
// reader follows it regardless of how the ring drifts afterwards.
func (c *Client) createSet(path string) []string {
	want := c.opts.Stripes
	c.mu.Lock()
	defer c.mu.Unlock()
	candidates := c.ring.LookupN(path, want+len(c.draining))
	if len(c.draining) == 0 {
		return candidates
	}
	var out []string
	for _, addr := range candidates {
		if !c.draining[addr] && len(out) < want {
			out = append(out, addr)
		}
	}
	if len(out) == 0 {
		return candidates[:min(want, len(candidates))]
	}
	return out
}

// Open opens an existing file (create=false) or creates it, returning a
// *File handle. Creation places the file on every server of its stripe
// set — recording the stripe width in the file metadata — so striped
// appends land locally and any client can later discover the layout.
// The handle follows the layout the servers recorded, not this client's
// configuration — read off the create replies, which describe the entry
// now at the path, or off a stat — so clients with different striping
// configurations interoperate.
func (c *Client) Open(path string, create bool) (*File, error) {
	return c.OpenContext(context.Background(), path, create)
}

// OpenContext is Open honoring ctx: cancellation during the create
// fan-out or the layout stat returns ErrCanceled.
func (c *Client) OpenContext(ctx context.Context, path string, create bool) (*File, error) {
	if create {
		set := c.createSet(path)
		if len(set) == 0 {
			return nil, fmt.Errorf("client: no servers left")
		}
		resps, err := strict(c.fanOut(ctx, set, path, func(int) *transport.Request {
			return &transport.Request{
				Type:       transport.MsgCreate,
				Stripes:    len(set),
				StripeUnit: c.opts.StripeUnit,
				StripeSet:  set,
			}
		}))
		if err != nil {
			return nil, err
		}
		if size, lay, ok := c.createdLayout(path, set, resps); ok {
			return c.newFile(path, size, lay), nil
		}
	}
	size, _, lay, err := c.statFull(ctx, path)
	if err != nil {
		return nil, err
	}
	return c.newFile(path, size, lay), nil
}

// newFile is a handle on path at the given size and layout.
func (c *Client) newFile(path string, size int64, lay layoutInfo) *File {
	return &File{c: c, h: &fileHandle{
		path: path, size: size,
		stripes: lay.stripes, unit: lay.unit, set: lay.set, layoutGen: lay.gen,
	}}
}

// createdLayout reads the file's size and layout off the replies of a
// create fan-out to set. ok is false when they do not describe one file
// laid out on exactly that set — it already existed under another layout,
// or a migration is rewriting it — and the caller stats instead.
func (c *Client) createdLayout(path string, set []string, resps []*transport.Response) (size int64, lay layoutInfo, ok bool) {
	sizes := make([]int64, len(resps))
	for i, r := range resps {
		l := c.layoutOf(path, r)
		if r.IsDir || l.gen == 0 || !slices.Equal(l.set, set) || i > 0 && (l.gen != lay.gen || l.unit != lay.unit) {
			return 0, lay, false
		}
		lay, sizes[i] = l, r.Size
	}
	return fsys.ConsistentTotal(sizes, lay.unit), lay, true
}

// Mkdir creates a directory (replicated on every server).
func (c *Client) Mkdir(path string) error {
	return c.MkdirContext(context.Background(), path)
}

// MkdirContext is Mkdir honoring ctx. Directory metadata is replicated
// on all servers so that any server can validate parents locally,
// matching §4.3's "directories and files are stored as files" with
// directory content spread across servers.
func (c *Client) MkdirContext(ctx context.Context, path string) error {
	_, err := strict(c.fanOut(ctx, c.Servers(), path, func(int) *transport.Request {
		return &transport.Request{Type: transport.MsgMkdir}
	}))
	return err
}

// Readdir lists a directory, merging the children recorded on each
// server (a file's directory entry lives on the file's owner server).
// A server that answers not-exist contributes nothing instead of
// failing the merge: directory replication is opportunistic — a member
// that joined after the mkdir legitimately lacks the entry until
// something migrates into it. Only not-exist is tolerated (any other
// error, like not-a-directory, signals real divergence and surfaces),
// and the listing fails when every server answers not-exist (a
// genuinely missing directory).
func (c *Client) Readdir(path string) ([]string, error) {
	return c.ReaddirContext(context.Background(), path)
}

// ReaddirContext is Readdir honoring ctx.
func (c *Client) ReaddirContext(ctx context.Context, path string) ([]string, error) {
	resps, err := c.fanOut(ctx, c.Servers(), path, func(int) *transport.Request {
		return &transport.Request{Type: transport.MsgReaddir}
	})
	if err != nil {
		return nil, err
	}
	var names []string
	var missing error
	found := false
	for _, r := range resps {
		switch {
		case r.Err == "":
			found = true
			names = append(names, r.Names...)
		case transport.IsNotExist(r.Error()):
			missing = wireErr(r.Error())
		default:
			return nil, wireErr(r.Error())
		}
	}
	if !found && missing != nil {
		return nil, missing
	}
	sort.Strings(names)
	return slices.Compact(names), nil
}

// Unlink removes a file (on its stripe servers) or a directory (on all).
// Stripe servers that have failed over are skipped: their copy died with
// them, and refusing to unlink a partially-lost file would leave its
// stale layout squatting on the name forever.
func (c *Client) Unlink(path string) error {
	return c.UnlinkContext(context.Background(), path)
}

// UnlinkContext is Unlink honoring ctx. The ring owner is asked to unlink
// first and its reply describes what it removed, which names whoever else
// holds a piece: nobody for a one-stripe file, the rest of the recorded
// set for a wider one, every other server for a directory. An owner that
// answers not-exist or stale-layout (the ring drifted, or the owner was
// draining at create and never held the file) decides nothing: the entry
// is then found by stat and unlinked wherever it lives. A failure among
// the rest leaves the entry partly removed, as a failed fan-out always
// has; a second Unlink finishes it the same way, through the stat.
func (c *Client) UnlinkContext(ctx context.Context, path string) error {
	unlink := func(int) *transport.Request { return &transport.Request{Type: transport.MsgUnlink} }
	var isDir bool
	var lay layoutInfo
	resp, owner, err := c.call(ctx, path, unlink(0))
	switch {
	case err == nil:
		isDir, lay = resp.IsDir, c.layoutOf(path, resp)
	case retryableLayout(err):
		owner = ""
		if _, isDir, lay, err = c.statFull(ctx, path); err != nil {
			return err
		}
	default:
		return err
	}
	holders := lay.set
	if isDir {
		holders = c.Servers()
	}
	rest := c.reachable(holders, owner)
	if owner == "" && len(rest) == 0 {
		return fmt.Errorf("client: no live stripe servers hold %s", path)
	}
	_, err = strict(c.fanOut(ctx, rest, path, unlink))
	return err
}

// Flush asks every connected server to stage out all dirty data to its
// backing store before returning — the client-visible durability
// barrier (an application calls it after writing a checkpoint it cannot
// afford to lose). Servers without a backing store reply immediately.
func (c *Client) Flush() error {
	return c.FlushContext(context.Background())
}

// FlushContext is Flush honoring ctx.
func (c *Client) FlushContext(ctx context.Context) error {
	_, err := strict(c.fanOut(ctx, c.Servers(), "/", func(int) *transport.Request {
		return &transport.Request{Type: transport.MsgFlush}
	}))
	return err
}
