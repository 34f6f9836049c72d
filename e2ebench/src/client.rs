//! A minimal HTTP/1.1 client for driving `od-serve`: one keep-alive
//! connection that waits for each reply (a closed loop), or one request
//! on a fresh connection. Every reply carries two timings: time to the
//! first response byte, which isolates the service's handling from how
//! the response is written, and time to the last body byte, which is
//! what a caller waits for.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long any single read may block before the request counts as
/// timed out.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The idle timeout `od-serve` is started with, in milliseconds.
pub const SERVICE_IDLE_TIMEOUT_MS: u64 = 5_000;

/// A keep-alive connection idle this long is reopened before its next
/// request. The margin under the service's idle timeout keeps the
/// request from racing the service's close.
const REOPEN_AFTER_IDLE: Duration = Duration::from_millis(SERVICE_IDLE_TIMEOUT_MS - 500);

/// One answered request.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The response body.
    pub body: Vec<u8>,
    /// Request write start → first response byte.
    pub ttfb: Duration,
    /// Request write start → last body byte (connect included for a
    /// fresh connection).
    pub total: Duration,
    /// Whether the service keeps the connection open after this reply
    /// (its `Connection` header; HTTP/1.1 defaults to keep-alive).
    pub keep_alive: bool,
}

impl Reply {
    /// The body parsed as JSON.
    pub fn json(&self) -> Result<od_runtime::json::Json, String> {
        let text = std::str::from_utf8(&self.body).map_err(|e| e.to_string())?;
        od_runtime::json::parse(text).map_err(|e| e.to_string())
    }
}

/// The exact bytes of one request.
pub fn request_bytes(method: &str, path: &str, body: &[u8], close: bool) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if close { "close" } else { "keep-alive" }
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    last_used: Instant,
    /// Set when the last reply said `Connection: close` or the last
    /// exchange failed: the next request needs a new connection.
    reopen: bool,
    /// Connections opened after the first one.
    pub reconnects: u64,
}

impl Conn {
    /// Connects to `addr`.
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = connect(addr)?;
        Ok(Self {
            addr,
            stream,
            last_used: Instant::now(),
            reopen: false,
            reconnects: 0,
        })
    }

    /// Sends one request and reads its reply. The connection is reopened
    /// first, untimed, only where the service may rightly have closed it:
    /// after a `Connection: close` verdict, a failed exchange, or an idle
    /// gap near the service's idle timeout. Any other close is an error.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
        if self.reopen || self.last_used.elapsed() >= REOPEN_AFTER_IDLE {
            self.stream = connect(self.addr)?;
            self.reconnects += 1;
        }
        let result = exchange(
            &mut self.stream,
            &request_bytes(method, path, body, false),
            Instant::now(),
        );
        self.last_used = Instant::now();
        self.reopen = !matches!(&result, Ok(reply) if reply.keep_alive);
        result
    }
}

/// Sends one request on a new connection; the timings include connect.
pub fn fresh(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = connect(addr)?;
    exchange(&mut stream, &request_bytes(method, path, body, true), start)
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

fn exchange(stream: &mut TcpStream, request: &[u8], start: Instant) -> std::io::Result<Reply> {
    stream.write_all(request)?;
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let mut ttfb = None;
    let (status, header_end, length, keep_alive) = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        ttfb.get_or_insert_with(|| start.elapsed());
        buf.extend_from_slice(&chunk[..n]);
        if let Some(end) = find(&buf, b"\r\n\r\n") {
            let (status, length, keep_alive) = parse_head(&buf[..end])?;
            break (status, end + 4, length, keep_alive);
        }
    };
    while buf.len() < header_end + length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let total = start.elapsed();
    Ok(Reply {
        status,
        body: buf[header_end..header_end + length].to_vec(),
        ttfb: ttfb.unwrap_or(total),
        total,
        keep_alive,
    })
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The status, `Content-Length` and keep-alive verdict of a response
/// head.
fn parse_head(head: &[u8]) -> std::io::Result<(u16, usize, bool)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let text = std::str::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let headers: Vec<(&str, &str)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(name, value)| (name, value.trim()))
        .collect();
    let header = |wanted: &str| {
        headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(wanted))
            .map(|&(_, value)| value)
    };
    let length = header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("response without Content-Length"))?;
    let keep_alive = !header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    Ok((status, length, keep_alive))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_connection_header_decides_keep_alive() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close";
        assert_eq!(parse_head(head).unwrap(), (200, 2, false));
        let head = b"HTTP/1.1 201 Created\r\nconnection: keep-alive\r\ncontent-length: 7";
        assert_eq!(parse_head(head).unwrap(), (201, 7, true));
        let head = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0";
        assert_eq!(parse_head(head).unwrap(), (404, 0, true));
    }
}
