//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection, as a GUI session or an API caller waits for its answer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use cryptext_core::service::ApiToken;

use crate::inputs::{Op, Route};

/// One parsed response.
pub struct Reply {
    pub status: u16,
    /// The `X-Cryptext-Cache` header (`hit`, `cold`, `bypass`).
    pub cache: String,
    pub body: Vec<u8>,
}

pub struct Client {
    stream: TcpStream,
    auth: String,
    out: Vec<u8>,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr, token: &ApiToken) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            auth: format!("Authorization: Bearer {}\r\n", token.as_str()),
            out: Vec::with_capacity(1024),
            buf: Vec::with_capacity(8192),
        })
    }

    /// Send one request and wait for its whole response.
    pub fn call(&mut self, op: &Op) -> std::io::Result<Reply> {
        self.out.clear();
        match op.route {
            Route::Lookup => {
                self.out.extend_from_slice(b"GET /lookup?q=");
                percent_encode(&op.input, &mut self.out);
                self.out
                    .extend_from_slice(b" HTTP/1.1\r\nHost: perfbench\r\n");
                self.out.extend_from_slice(self.auth.as_bytes());
                self.out.extend_from_slice(b"\r\n");
            }
            Route::Normalize | Route::Perturb => {
                let path = if op.route == Route::Normalize {
                    "/normalize"
                } else {
                    "/perturb"
                };
                self.out.extend_from_slice(
                    format!("POST {path} HTTP/1.1\r\nHost: perfbench\r\n").as_bytes(),
                );
                self.out.extend_from_slice(self.auth.as_bytes());
                self.out.extend_from_slice(
                    format!("Content-Length: {}\r\n\r\n", op.input.len()).as_bytes(),
                );
                self.out.extend_from_slice(op.input.as_bytes());
            }
        }
        self.stream.write_all(&self.out)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> std::io::Result<Reply> {
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| std::io::Error::other("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("malformed status line"))?;
        let mut len = 0usize;
        let mut cache = String::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse().unwrap_or(0);
                } else if name.eq_ignore_ascii_case("x-cryptext-cache") {
                    cache = value.trim().to_string();
                }
            }
        }
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Reply {
            status,
            cache,
            body,
        })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn percent_encode(s: &str, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for &b in s.as_bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            out.push(b);
        } else {
            out.extend_from_slice(&[b'%', HEX[(b >> 4) as usize], HEX[(b & 15) as usize]]);
        }
    }
}
