package main

import (
	"fmt"
	"net"

	"mmconf/internal/blob"
	"mmconf/internal/media/compress"
	"mmconf/internal/media/image"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/store"
	"mmconf/internal/wire"
)

// Per-layer probes and the traced pass for the media workloads. Probes
// call mediadb, store, blob, the response codec and the decoders
// directly, in this process, on the objects the workload stored.

func (f *fetchInst) layers(lr *layerRun) {
	if err := f.probes(lr); err != nil {
		lr.fail(err.Error())
		return
	}
	if err := f.tracePass(lr); err != nil {
		lr.fail(err.Error())
	}
}

// imageRow fetches an image object's row and blob handle.
func (f *fetchInst) imageRow(id uint64) (*store.Table, store.Row, blob.Handle, error) {
	tbl, err := f.s.db.Table(mediadb.ImageTable)
	if err != nil {
		return nil, nil, blob.Handle{}, err
	}
	row, ok, err := tbl.Get(id)
	if err != nil || !ok {
		return nil, nil, blob.Handle{}, fmt.Errorf("image row %d: found=%v err=%v", id, ok, err)
	}
	h, ok := row[3].(blob.Handle)
	if !ok {
		return nil, nil, blob.Handle{}, fmt.Errorf("image row %d: column 3 holds %T", id, row[3])
	}
	return tbl, row, h, nil
}

func (f *fetchInst) probes(lr *layerRun) error {
	m, db := f.s.media, f.s.db
	var perr error
	note := func(err error) {
		if err != nil {
			perr = err
		}
	}
	us := func(samples, batch int, fn func()) float64 { return timeCalls(lr.n(samples), batch, fn) / 1e3 }

	if f.name == wlMultiresView {
		o := &f.objs[0]
		lr.set("mediadb.get_cmp_us", us(200, 4, func() { _, err := m.GetCmp(o.id); note(err) }))
		c, err := m.GetCmp(o.id)
		if err != nil {
			return err
		}
		full, err := compress.Unmarshal(c.Header, c.Data)
		if err != nil {
			return err
		}
		lr.set("media.compress.unmarshal_us", us(200, 4, func() { _, err := compress.Unmarshal(c.Header, c.Data); note(err) }))
		for l := 1; l <= maxStreamLayers; l++ {
			prefix := c.Data[:full.PrefixBytes(l)]
			s, err := compress.Unmarshal(c.Header, prefix)
			if err != nil {
				return err
			}
			lr.set(fmt.Sprintf("media.compress.decode_ms.l%d", l), us(15, 1, func() { _, err := s.Decode(0); note(err) })/1e3)
		}
		lr.wireProbes(true, true, false, false)
		return perr
	}

	img64 := f.objectWhere(func(o *object) bool { return o.kind == objImage && o.size == rasterHeader+64<<10 })
	aud := f.objectWhere(func(o *object) bool { return o.kind == objAudio })
	if img64 == nil || aud == nil {
		return fmt.Errorf("%s: no 64 KiB raster or audio object to probe", f.name)
	}
	stored, err := m.GetImage(img64.id)
	if err != nil {
		return err
	}
	lr.set("mediadb.get_image_us", us(300, 4, func() { _, err := m.GetImage(img64.id); note(err) }))
	lr.set("mediadb.get_audio_us", us(300, 4, func() { _, err := m.GetAudio(aud.id); note(err) }))
	tbl, row, handle, err := f.imageRow(img64.id)
	if err != nil {
		return err
	}
	lr.set("store.get_us", us(300, 50, func() { _, _, err := tbl.Get(img64.id); note(err) }))
	blobUS := us(300, 4, func() { _, err := db.GetBlob(handle); note(err) })
	lr.set("blob.get_us", blobUS)
	lr.set("blob.get_mb_per_s", ratio(float64(len(stored.Data))/(1<<20), blobUS/1e6))
	lr.set("media.image.decode_us", us(300, 4, func() { _, err := image.Decode(stored.Data); note(err) }))
	if big := f.objectWhere(func(o *object) bool { return o.kind == objImage && o.size == rasterHeader+256<<10 }); big != nil {
		bigImg, err := m.GetImage(big.id)
		if err != nil {
			return err
		}
		lr.set("media.image.decode_256k_us", us(200, 2, func() { _, err := image.Decode(bigImg.Data); note(err) }))
	}

	resp := &proto.GetImageResp{Quality: stored.Quality, Texts: stored.Texts, CM: stored.CM, Digest: stored.Digest[:], Data: stored.Data}
	encoded := wire.MarshalBody(resp)
	lr.set("proto.get_overhead_bytes", float64(len(encoded)-len(stored.Data)))
	lr.set("proto.get_codec_us", us(300, 4, func() {
		var out proto.GetImageResp
		note(wire.DecodeBodyBytes(wire.MarshalBody(resp), &out))
	}))

	if f.name == wlFetchColdRW {
		// Writes go to an image of driver 0's own range, rewriting the
		// texts it already holds so later read-backs still agree.
		own := f.objectWhere(func(o *object) bool { return o.owner == 0 })
		texts := f.drivers[0].texts[own.id]
		lr.set("mediadb.update_texts_us", us(300, 4, func() { note(m.UpdateImageTexts(own.id, texts)) }))
		lr.set("store.update_us", us(300, 4, func() { _, err := tbl.UpdateReturningOld(img64.id, row); note(err) }))
		lr.set("blob.put_mb_per_s", ratio(float64(f.putBytes)/(1<<20), f.putSeconds))
		bs, _ := db.BlobStats()
		lr.set("blob.stored_per_user_byte", ratio(float64(bs.TotalBytes), float64(f.putBytes)))
	}
	lr.wireProbes(true, true, f.name == wlFetchHot, false)
	return perr
}

// Traced operations per pass; a multires_view operation costs tens of
// milliseconds twice over (the fetch and the replayed decode).
const (
	tracedFetches  = 2000
	tracedMultires = 120
)

// tracePass continues driver 0's operation stream on fresh, timestamped
// connections and records the span tree of every operation:
//
//	op.<get>                       the client call (fetch + decode)
//	  client.<get>
//	    wire.roundtrip             request on the socket -> reply off the socket
//	      server.handle            the server's handle time for this request
//	        mediadb.<get>          replay, only if this request missed the object cache
//	          store.get, blob.get  replay
//	    proto.codec                replay: response encode + decode
//	    media.<decode>             replay on the fetched bytes
//	op.putImageTexts
//	  wire.call                    the raw wire call
//	    server.handle
//	      mediadb.updateTexts      replay (same texts)
//	        store.update           replay
func (f *fetchInst) tracePass(lr *layerRun) error {
	var readConn *tracedConn
	cl, err := f.s.dial("tr0", func(c net.Conn) net.Conn { readConn = &tracedConn{Conn: c}; return readConn })
	if err != nil {
		return err
	}
	d := f.drivers[0]
	raw := d.raw
	if raw != nil {
		if raw, err = f.s.dialRaw(nil); err != nil {
			return err
		}
	}
	td := &fetchDriver{cl: cl, raw: raw, gen: d.gen, texts: d.texts}
	n := tracedFetches
	if f.name == wlMultiresView {
		n = tracedMultires
	}
	if lr.cfg.smoke {
		n /= 20
	}
	t := newTracer()
	for i := 0; i < n; i++ {
		op := td.gen.next()
		o := &f.objs[op.Obj]
		var err error
		if op.Write {
			err = f.traceWrite(t, td, o)
		} else {
			err = f.traceRead(t, td, readConn, o, op.Layers)
		}
		if err != nil {
			return err
		}
	}
	lr.traced(t)
	lr.set("client.fetch_self_us", lr.out["trace.self_us.client"])
	return nil
}

func (f *fetchInst) traceWrite(t *tracer, d *fetchDriver, o *object) error {
	before := f.s.handleTotal(0, proto.MPutImageTexts)
	t0, took, err := f.write(d, 0, o)
	if err != nil {
		return err
	}
	end := t0.Add(took)
	tr := t.begin()
	root := tr.add(0, "op.putImageTexts", t0, end)
	call := tr.add(root, "wire.call", t0, end)
	handle := tr.addDur(call, "server.handle", t0, f.s.handleTotal(0, proto.MPutImageTexts)-before)
	texts := d.texts[o.id]
	md := tr.timed(handle, "mediadb.updateTexts", func() { err = f.s.media.UpdateImageTexts(o.id, texts) })
	if err != nil {
		return err
	}
	tbl, row, _, err := f.imageRow(o.id)
	if err != nil {
		return err
	}
	tr.timed(md, "store.update", func() { _, err = tbl.UpdateReturningOld(o.id, row) })
	return err
}

func (f *fetchInst) traceRead(t *tracer, d *fetchDriver, conn *tracedConn, o *object, layers int) error {
	method, name := proto.MGetImage, "getImage"
	switch o.kind {
	case objAudio:
		method, name = proto.MGetAudio, "getAudio"
	case objStream:
		method, name = proto.MGetCmp, "getCmp"
	}
	stats := f.s.srv.Stats()
	handleBefore, missBefore := f.s.handleTotal(0, method), stats.Counter("cache.obj.misses")
	conn.reset()
	t0, took, err := f.read(d, 0, o, layers)
	if err != nil {
		return err
	}
	handled := f.s.handleTotal(0, method) - handleBefore
	missed := stats.Counter("cache.obj.misses") > missBefore
	end := t0.Add(took)
	w0, w1 := conn.roundTrip(t0, end)
	tr := t.begin()
	root := tr.add(0, "op."+name, t0, end)
	call := tr.add(root, "client."+name, t0, end)
	rt := tr.add(call, "wire.roundtrip", w0, w1)
	handle := tr.addDur(rt, "server.handle", w0, handled)

	m := f.s.media
	switch o.kind {
	case objImage:
		var img mediadb.ImageObject
		fetch := func() { img, err = m.GetImage(o.id) }
		if missed {
			md := tr.timed(handle, "mediadb.getImage", fetch)
			if err == nil {
				err = f.traceStoreBlob(tr, md, o.id)
			}
		} else {
			fetch()
		}
		if err != nil {
			return err
		}
		resp := &proto.GetImageResp{Quality: img.Quality, Texts: img.Texts, CM: img.CM, Digest: img.Digest[:], Data: img.Data}
		tr.timed(call, "proto.codec", func() {
			var out proto.GetImageResp
			err = wire.DecodeBodyBytes(wire.MarshalBody(resp), &out)
		})
		if err != nil {
			return err
		}
		tr.timed(call, "media.image.decode", func() { _, err = image.Decode(img.Data) })
	case objAudio:
		var a mediadb.AudioObject
		fetch := func() { a, err = m.GetAudio(o.id) }
		if missed {
			tr.timed(handle, "mediadb.getAudio", fetch)
		} else {
			fetch()
		}
		if err != nil {
			return err
		}
		resp := &proto.GetAudioResp{Filename: a.Filename, Sectors: a.Sectors, Digest: a.Digest[:], Data: a.Data}
		tr.timed(call, "proto.codec", func() {
			var out proto.GetAudioResp
			err = wire.DecodeBodyBytes(wire.MarshalBody(resp), &out)
		})
	default:
		var c mediadb.CmpObject
		fetch := func() { c, err = m.GetCmp(o.id) }
		if missed {
			tr.timed(handle, "mediadb.getCmp", fetch)
		} else {
			fetch()
		}
		if err != nil {
			return err
		}
		full, err := compress.Unmarshal(c.Header, c.Data)
		if err != nil {
			return err
		}
		prefix := c.Data[:full.PrefixBytes(layers)]
		resp := &proto.GetCmpResp{Filename: c.Filename, Digest: c.DataDigest[:], Header: c.Header, Data: prefix}
		tr.timed(call, "proto.codec", func() {
			var out proto.GetCmpResp
			err = wire.DecodeBodyBytes(wire.MarshalBody(resp), &out)
		})
		if err != nil {
			return err
		}
		var s *compress.Stream
		tr.timed(call, "media.compress.unmarshal", func() { s, err = compress.Unmarshal(c.Header, prefix) })
		if err != nil {
			return err
		}
		tr.timed(call, "media.compress.decode", func() { _, err = s.Decode(0) })
	}
	return err
}

// traceStoreBlob replays the two calls mediadb.GetImage makes below it.
func (f *fetchInst) traceStoreBlob(tr *opTrace, parent int, id uint64) error {
	tbl, err := f.s.db.Table(mediadb.ImageTable)
	if err != nil {
		return err
	}
	var row store.Row
	tr.timed(parent, "store.get", func() { row, _, err = tbl.Get(id) })
	if err != nil {
		return err
	}
	h, ok := row[3].(blob.Handle)
	if !ok {
		return fmt.Errorf("image row %d: column 3 holds %T", id, row[3])
	}
	tr.timed(parent, "blob.get", func() { _, err = f.s.db.GetBlob(h) })
	return err
}
