package client

import (
	"context"
	"fmt"
	"io"
	"io/fs"
)

// File is a handle to an open ThemisIO file. It implements
// io.ReadWriteSeeker and io.Closer over the client's striped data
// plane, and each method has a context-honoring variant for callers
// that need deadlines or cancellation. A File is not safe for
// concurrent use (it carries one offset, like a POSIX descriptor); open
// the path again for a second independent handle. After Close every
// method returns an error matching fs.ErrClosed.
type File struct {
	c    *Client
	path string
	off  int64
	// size is the known global size — the append position for striped
	// writes and the clamp for reads. It is set at Open and advanced by
	// Write; extensions made through other handles become visible on
	// reopen.
	size int64
	// lay is the file's recorded layout as last read. Every read and
	// write echoes its generation, so a server that rebalanced the file
	// answers stale-layout instead of serving re-striped bytes, and the
	// call re-stats and retries.
	lay layoutInfo
	// damaged marks a handle whose striped write could not be completed
	// or repaired; further writes would interleave wrongly, so they are
	// refused instead of silently corrupting the file.
	damaged bool
	closed  bool
}

// Path returns the path the handle was opened on.
func (f *File) Path() string { return f.path }

func (f *File) errClosed() error {
	return fmt.Errorf("client: %s: %w", f.path, fs.ErrClosed)
}

// Read reads up to len(p) bytes from the handle's offset, returning
// io.EOF at end of file (the io.Reader contract).
func (f *File) Read(p []byte) (int, error) {
	return f.ReadContext(context.Background(), p)
}

// ReadContext is Read honoring ctx: cancellation mid-read abandons the
// in-flight chunk RPCs and returns ErrCanceled.
func (f *File) ReadContext(ctx context.Context, p []byte) (int, error) {
	if f.closed {
		return 0, f.errClosed()
	}
	n, err := f.c.read(ctx, f, p)
	if err == nil && n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, err
}

// Write appends len(p) bytes to the file through the striped data
// plane. On a short write the returned count is the durable prefix, so
// a POSIX-style retry of the remainder is correct.
func (f *File) Write(p []byte) (int, error) {
	return f.WriteContext(context.Background(), p)
}

// WriteContext is Write honoring ctx. The seal-window retry budget
// tightens to ctx's deadline; cancellation returns ErrCanceled.
func (f *File) WriteContext(ctx context.Context, p []byte) (int, error) {
	if f.closed {
		return 0, f.errClosed()
	}
	return f.c.write(ctx, f, p)
}

// Seek repositions the handle (io.Seeker whence values). Seeking
// relative to the end stats the file. A resulting offset below zero is
// refused with the handle unmoved (POSIX EINVAL).
func (f *File) Seek(offset int64, whence int) (int64, error) {
	return f.SeekContext(context.Background(), offset, whence)
}

// SeekContext is Seek honoring ctx (only SeekEnd performs I/O).
func (f *File) SeekContext(ctx context.Context, offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, f.errClosed()
	}
	next := offset
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		next += f.off
	case io.SeekEnd:
		size, _, _, err := f.c.statFull(ctx, f.path)
		if err != nil {
			return 0, err
		}
		next += size
	default:
		return 0, fmt.Errorf("client: bad whence %d", whence)
	}
	if next < 0 {
		return 0, fmt.Errorf("client: invalid seek to negative offset %d (EINVAL)", next)
	}
	f.off = next
	return next, nil
}

// Close releases the handle. The client connection stays up; Close on
// the Client tears that down.
func (f *File) Close() error {
	if f.closed {
		return f.errClosed()
	}
	f.closed = true
	return nil
}
