package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// Post-copy migration (Hines & Gopalan, the paper's reference [13]),
// combined with checkpoint recycling. Where pre-copy streams memory while
// the guest still runs at the source, post-copy flips the order: the guest
// stops at the source immediately, a per-page checksum manifest crosses the
// wire, and the guest resumes at the destination while missing pages are
// fetched over the network. With a local checkpoint, "missing" shrinks to
// the pages whose content is genuinely new — the same set VeCycle's
// pre-copy first round would transfer — so recycling cuts exactly the
// post-copy phase during which the guest suffers remote page faults.
//
// Wire layout (after the shared hello/hello-ack):
//
//	source → destination: manifest = page count + one checksum per page
//	destination → source: page requests (page numbers), then done
//	source → destination: one one-page range-full frame per request, in
//	                      request order
//	source → destination: ack after done
//
// Requests are pipelined: the destination writes them in windows of
// requestWindow pages and flushes once per window, then drains the
// responses in order. One network round trip is paid per window instead of
// per page — on the paper's WAN parameters (27 ms RTT) that is the
// difference between seconds and minutes of post-copy degradation.

// Additional message tags for the post-copy protocol.
const (
	msgManifest msgType = iota + 32 // source → destination: one checksum per page
	msgFetch                        // destination → source: page-request, one page number
)

// requestWindow is the number of pipelined page requests in flight per
// flush on the post-copy fetch path. 256 requests are 2.3 KiB on the wire
// (well inside one TCP window) and amortize one RTT over 1 MiB of pages.
const requestWindow = 256

// PostCopySourceOptions configures the source of a post-copy migration. Its
// manifest carries checksum.Default digests, as every migration's frames do.
type PostCopySourceOptions struct {
	// OnEvent, when non-nil, observes each protocol turn (hello, manifest,
	// fetch, done) for tracing. Emission never alters the wire stream.
	OnEvent EventFunc
}

// PostCopyMetrics extends the shared metrics with post-copy specifics.
type PostCopyMetrics struct {
	Metrics
	// ResumeDelay is how long after the migration started the guest could
	// resume at the destination — the figure of merit post-copy optimizes.
	// (On the source it is the time until the manifest was sent.)
	ResumeDelay time.Duration
	// PagesRequested counts pages served over the network after resume.
	PagesRequested int
}

// String summarizes the metrics in one line: the shared prefix of
// Metrics.String (identical field order and units on either side),
// followed by the post-copy specifics.
func (m PostCopyMetrics) String() string {
	return fmt.Sprintf("%s resume=%v fetched=%d",
		m.Metrics.String(), m.ResumeDelay, m.PagesRequested)
}

// PostCopySource runs the source side. The guest must already be paused:
// post-copy transfers a frozen state. The function returns once every
// requested page has been served and the destination confirmed completion.
// Cancelling ctx aborts at the next protocol turn.
func PostCopySource(ctx context.Context, conn io.ReadWriter, v *vm.VM, opts PostCopySourceOptions) (m PostCopyMetrics, err error) {
	ctx = orBackground(ctx)
	stop := watchContext(ctx, conn)
	defer stop()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
	}()

	start := time.Now()
	cw := &countingWriter{w: conn}
	cr := &countingReader{r: conn}
	w := getDataWriter(cw)
	r := getCtlReader(cr)
	defer putDataWriter(w)
	defer putCtlReader(r)
	defer func() {
		m.BytesSent = cw.n
		m.BytesReceived = cr.n
	}()

	h := newHello(v)
	h.Recycle, h.PostCopy = true, true
	if err := writeHello(w, h); err != nil {
		return m, err
	}
	if err := flush(w); err != nil {
		return m, err
	}
	t, err := readMsgType(r)
	if err != nil {
		return m, err
	}
	if t != msgHelloAck {
		return m, fmt.Errorf("%w: expected hello-ack, got %v", ErrProtocol, t)
	}
	ack, err := readHelloAck(r)
	if err != nil {
		return m, err
	}
	if !ack.OK {
		return m, fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
	}
	opts.OnEvent.emit(Event{Kind: EventHello, Pages: int64(v.NumPages()),
		Detail: fmt.Sprintf("have_checkpoint=%v", ack.HaveCheckpoint)})

	// Manifest: one checksum per page, in page order.
	manifestStart := cw.n
	if err := writeMsgType(w, msgManifest); err != nil {
		return m, err
	}
	var countBuf [8]byte
	binary.LittleEndian.PutUint64(countBuf[:], uint64(v.NumPages()))
	if _, err := w.Write(countBuf[:]); err != nil {
		return m, fmt.Errorf("core: write manifest count: %w", err)
	}
	// The guest is paused, so its digest table answers for every page not
	// written since it last migrated; only the rest are hashed.
	var sums []checksum.Sum
	for start := 0; start < v.NumPages(); start += batchPages {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		count := min(batchPages, v.NumPages()-start)
		var hashed int
		sums, hashed = v.Digests(start, count, sums)
		m.HashBytes += int64(hashed) * vm.PageSize
		m.HashAvoidedBytes += int64(count-hashed) * vm.PageSize
		for i := range sums {
			if _, err := w.Write(sums[i][:]); err != nil {
				return m, fmt.Errorf("core: write manifest sum %d: %w", start+i, err)
			}
		}
	}
	if err := flush(w); err != nil {
		return m, err
	}
	m.ResumeDelay = time.Since(start)
	opts.OnEvent.emit(Event{Kind: EventManifest, Bytes: cw.n - manifestStart,
		Pages: int64(v.NumPages())})

	// Serve page requests until the destination is done. Responses are only
	// flushed once no further request is already buffered, so a pipelined
	// window of requests is answered with one batched write.
	buf := make([]byte, vm.PageSize)
	for {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		t, err := readMsgType(r)
		if err != nil {
			return m, err
		}
		switch t {
		case msgFetch:
			var pageBuf [8]byte
			if _, err := io.ReadFull(r, pageBuf[:]); err != nil {
				return m, fmt.Errorf("core: read page request: %w", err)
			}
			page := binary.LittleEndian.Uint64(pageBuf[:])
			if page >= uint64(v.NumPages()) {
				return m, fmt.Errorf("%w: requested page %d out of range", ErrProtocol, page)
			}
			v.ReadPage(int(page), buf)
			m.PagesRequested++
			m.PagesFull++
			sum := [1]checksum.Sum{checksum.Default.Page(buf)}
			if err := writeRangeHeader(w, msgRangeFull, page, 1); err != nil {
				return m, err
			}
			if err := writeRangeSums(w, sum[:]); err != nil {
				return m, err
			}
			if _, err := w.Write(buf); err != nil {
				return m, fmt.Errorf("core: write page %d payload: %w", page, err)
			}
			if r.Buffered() == 0 {
				if err := flush(w); err != nil {
					return m, err
				}
			}
		case msgDone:
			if err := writeMsgType(w, msgAck); err != nil {
				return m, err
			}
			if err := flush(w); err != nil {
				return m, err
			}
			m.Duration = time.Since(start)
			opts.OnEvent.emit(Event{Kind: EventFetch, Pages: int64(m.PagesRequested)})
			opts.OnEvent.emit(Event{Kind: EventDone, Bytes: cw.n})
			return m, nil
		default:
			return m, fmt.Errorf("%w: unexpected %v while serving pages", ErrProtocol, t)
		}
	}
}

// PostCopyDestOptions configures the destination side.
type PostCopyDestOptions struct {
	// Store is consulted for a checkpoint of the incoming VM.
	Store *checkpoint.Store
	// OnResume, when non-nil, is called the moment the guest could resume:
	// after the manifest has been resolved against local state, with the
	// number of pages still missing (to be demand-fetched).
	OnResume func(missing int)
	// OnEvent, when non-nil, observes each protocol turn (hello, manifest,
	// resume, fetch, done) for tracing. Emission never alters the wire
	// stream.
	OnEvent EventFunc
}

// PostCopyDestResult reports the outcome at the destination.
type PostCopyDestResult struct {
	Metrics PostCopyMetrics
	// UsedCheckpoint reports whether a local checkpoint was available.
	UsedCheckpoint bool
}

// PostCopyDest runs the destination side: resolve the manifest against the
// local checkpoint, "resume" the guest, then fetch the missing pages.
func PostCopyDest(ctx context.Context, conn io.ReadWriter, v *vm.VM, opts PostCopyDestOptions) (PostCopyDestResult, error) {
	s, err := Accept(ctx, conn)
	if err != nil {
		return PostCopyDestResult{}, err
	}
	return s.RunPostCopy(ctx, v, opts)
}

// IsPostCopy reports whether the accepted session requests the post-copy
// protocol.
func (s *IncomingSession) IsPostCopy() bool { return s.h.PostCopy }

// RunPostCopy completes an accepted post-copy migration into v. Cancelling
// ctx aborts at the next protocol turn (request-window boundaries during the
// fetch phase).
func (s *IncomingSession) RunPostCopy(ctx context.Context, v *vm.VM, opts PostCopyDestOptions) (res PostCopyDestResult, err error) {
	ctx = orBackground(ctx)
	stop := watchContext(ctx, s.conn)
	defer stop()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
	}()
	h := s.h
	w, r := s.w, s.r
	defer s.release()
	defer func() {
		res.Metrics.BytesSent = s.cw.n
		res.Metrics.BytesReceived = s.cr.n
	}()

	if reason := validateHello(h, v, true); reason != "" {
		_ = writeHelloAck(w, helloAck{OK: false, Reason: reason})
		_ = flush(w)
		return res, fmt.Errorf("%w: %s", ErrRejected, reason)
	}

	// The manifest is resolved against v's digest table, so the bootstrap's
	// pages must all have landed first; a span that cannot be read degrades
	// the migration to fetching every page.
	var cp *checkpoint.Checkpoint
	if opts.Store != nil {
		cp = s.openBootstrap(ctx, v, opts.Store, opts.OnEvent)
	}
	if err := cp.Drain(); err != nil {
		cp.Close()
		cp = nil
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		s.degradeBootstrap(opts.Store, err, opts.OnEvent)
	}
	if cp != nil {
		defer cp.Close()
		res.UsedCheckpoint = true
	}
	start := time.Now()
	if err := writeHelloAck(w, helloAck{OK: true, HaveCheckpoint: cp != nil}); err != nil {
		return res, err
	}
	if err := flush(w); err != nil {
		return res, err
	}
	opts.OnEvent.emit(Event{Kind: EventHello, Pages: int64(h.PageCount),
		Detail: fmt.Sprintf("have_checkpoint=%v", cp != nil)})

	// Manifest.
	manifestStart := s.cr.n
	t, err := readMsgType(r)
	if err != nil {
		return res, err
	}
	if t != msgManifest {
		return res, fmt.Errorf("%w: expected manifest, got %v", ErrProtocol, t)
	}
	var countBuf [8]byte
	if _, err := io.ReadFull(r, countBuf[:]); err != nil {
		return res, fmt.Errorf("core: read manifest count: %w", err)
	}
	count := binary.LittleEndian.Uint64(countBuf[:])
	if count != uint64(v.NumPages()) {
		return res, fmt.Errorf("%w: manifest covers %d pages, VM has %d", ErrProtocol, count, v.NumPages())
	}

	// Resolve each page locally where possible.
	var missing []uint64
	var sum checksum.Sum
	var resident []checksum.Sum
	for i := uint64(0); i < count; i++ {
		if i%8192 == 0 {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		if _, err := io.ReadFull(r, sum[:]); err != nil {
			return res, fmt.Errorf("core: read manifest sum %d: %w", i, err)
		}
		if cp == nil {
			missing = append(missing, i)
			continue
		}
		// The restore seeded v's digest table, so this compares two digests;
		// a page is hashed only when the table knows nothing about it.
		var hashed int
		resident, hashed = v.Digests(int(i), 1, resident)
		res.Metrics.ProbeHashBytes += int64(hashed) * vm.PageSize
		res.Metrics.HashAvoidedBytes += int64(1-hashed) * vm.PageSize
		if resident[0] == sum {
			res.Metrics.PagesReusedInPlace++
			continue
		}
		if data, ok, err := cp.ReadBlock(sum); err != nil {
			return res, recycleReadErr(err)
		} else if ok {
			v.InstallPageSum(int(i), data, sum)
			cp.Release(data)
			res.Metrics.PagesReusedFromDisk++
			continue
		}
		missing = append(missing, i)
	}

	// The guest can resume now: every resident page is final; the missing
	// ones fault over the network as touched.
	res.Metrics.ResumeDelay = time.Since(start)
	opts.OnEvent.emit(Event{Kind: EventManifest, Bytes: s.cr.n - manifestStart,
		Pages: int64(len(missing))})
	opts.OnEvent.emit(Event{Kind: EventResume, Pages: int64(len(missing))})
	if opts.OnResume != nil {
		opts.OnResume(len(missing))
	}

	// Background pre-paging: request the missing pages in order, pipelined
	// in windows — one flush (and so one round trip) per requestWindow
	// pages instead of one per page. done rides the last window (alone when
	// nothing is missing), so the source answers it and acks in one write.
	var f rangeFrame
	for start := 0; ; start += requestWindow {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		end := min(start+requestWindow, len(missing))
		for _, page := range missing[start:end] {
			var reqBuf [9]byte
			reqBuf[0] = byte(msgFetch)
			binary.LittleEndian.PutUint64(reqBuf[1:], page)
			if _, err := w.Write(reqBuf[:]); err != nil {
				return res, fmt.Errorf("core: write page request: %w", err)
			}
		}
		last := end == len(missing)
		if last {
			if err := writeMsgType(w, msgDone); err != nil {
				return res, err
			}
		}
		if err := flush(w); err != nil {
			return res, err
		}
		for _, page := range missing[start:end] {
			t, err := readMsgType(r)
			if err != nil {
				return res, err
			}
			if t != msgRangeFull {
				return res, fmt.Errorf("%w: expected range-full, got %v", ErrProtocol, t)
			}
			if err := readRangeFrame(r, t, v.NumPages(), 0, &f); err != nil {
				return res, err
			}
			if f.start != page || f.count != 1 {
				return res, fmt.Errorf("%w: requested page %d, received [%d,+%d)", ErrProtocol, page, f.start, f.count)
			}
			if checksum.Default.Page(f.payload) != f.sums[0] {
				return res, fmt.Errorf("%w: page %d payload checksum mismatch", ErrProtocol, page)
			}
			v.InstallPageSum(int(page), f.payload, f.sums[0])
			res.Metrics.PagesRequested++
			res.Metrics.PagesFull++
		}
		if last {
			break
		}
	}
	if t, err = readMsgType(r); err != nil {
		return res, err
	}
	if t != msgAck {
		return res, fmt.Errorf("%w: expected ack, got %v", ErrProtocol, t)
	}
	res.Metrics.Duration = time.Since(start)
	opts.OnEvent.emit(Event{Kind: EventFetch, Pages: int64(res.Metrics.PagesRequested)})
	opts.OnEvent.emit(Event{Kind: EventDone, Bytes: s.cr.n})
	return res, nil
}
