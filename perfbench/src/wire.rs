//! The client side of the wire: one framed, pipelining connection.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mda_server::protocol::{
    decode_reply, encode_request, read_frame, Envelope, Reply, Request, DEFAULT_MAX_FRAME_BYTES,
};

use crate::ledger::Acc;

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone().expect("clone socket")),
            writer: stream,
            next_id: 1,
        }
    }

    /// Gives `env` the next id, encodes and writes it, and returns when the
    /// write completed. With `encode`, the encode time is recorded there.
    pub fn send(&mut self, env: &mut Envelope, encode: Option<&mut Acc>) -> Instant {
        env.id = self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        let payload = encode_request(env);
        if let Some(acc) = encode {
            acc.add(us(t0.elapsed()));
        }
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&payload);
        self.writer.write_all(&frame).expect("write a request");
        Instant::now()
    }

    /// Reads one reply frame; returns it with its arrival time.
    pub fn recv(&mut self) -> (Vec<u8>, Instant) {
        let frame = read_frame(&mut self.reader, DEFAULT_MAX_FRAME_BYTES).expect("read a reply");
        (frame, Instant::now())
    }

    /// Reads and decodes the next frame.
    pub fn next_reply(&mut self) -> Reply {
        let (frame, _) = self.recv();
        decode_reply(&frame).expect("decode a reply")
    }

    /// One blocking request/reply exchange.
    pub fn call(&mut self, req: Request) -> Reply {
        let mut env = Envelope { id: 0, req };
        self.send(&mut env, None);
        let reply = self.next_reply();
        assert_eq!(reply.id, env.id, "reply to another request");
        reply
    }
}
