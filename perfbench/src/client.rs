//! A minimal keep-alive HTTP/1.1 client that times each exchange from
//! the first byte sent to the last body byte received, and for chunked
//! responses also to the end of the first data chunk (the service emits
//! one chunk per finished batch slot, the first carrying the body prefix
//! and slot 0).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One answered request.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The body, de-chunked when the response was chunked.
    pub body: Vec<u8>,
    /// Whether the response used `Transfer-Encoding: chunked`.
    pub chunked: bool,
    /// Send to the end of the first data chunk (chunked) or to the last
    /// body byte (otherwise).
    pub first_slot: Duration,
    /// Send to the last body byte.
    pub total: Duration,
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    host: String,
}

impl Conn {
    /// Connects with Nagle off and a read deadline, so a stuck server
    /// fails the request instead of hanging the benchmark.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            host: addr.to_string(),
        })
    }

    /// Sends one request and reads its complete response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n",
            self.host,
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let started = Instant::now();
        self.writer.write_all(&wire)?;

        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad_data(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        let mut chunked = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad_data("connection closed inside the head"));
            }
            let header = line.trim_end().to_ascii_lowercase();
            if header.is_empty() {
                break;
            }
            if let Some(value) = header.strip_prefix("content-length:") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad_data("bad content-length"))?;
            } else if let Some(value) = header.strip_prefix("transfer-encoding:") {
                chunked = value.trim() == "chunked";
            }
        }
        if chunked {
            let mut first = None;
            let body = read_chunked(&mut self.reader, &mut || {
                first.get_or_insert_with(|| started.elapsed());
            })?;
            let total = started.elapsed();
            Ok(Reply {
                status,
                body,
                chunked,
                first_slot: first.unwrap_or(total),
                total,
            })
        } else {
            let mut body = vec![0u8; length];
            self.reader.read_exact(&mut body)?;
            let total = started.elapsed();
            Ok(Reply {
                status,
                body,
                chunked,
                first_slot: total,
                total,
            })
        }
    }
}

fn bad_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads a chunked body through its terminating zero-size chunk,
/// calling `on_chunk` as each non-empty data chunk completes, and
/// returns the de-chunked bytes. Chunk extensions and trailers are not
/// used by the service and are rejected.
pub fn read_chunked<R: BufRead>(reader: &mut R, on_chunk: &mut dyn FnMut()) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad_data("connection closed inside a chunked body"));
        }
        let size = usize::from_str_radix(line.trim_end(), 16)
            .map_err(|_| bad_data(format!("bad chunk size line {line:?}")))?;
        let start = body.len();
        body.resize(start + size, 0);
        reader.read_exact(&mut body[start..])?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad_data("chunk not followed by CRLF"));
        }
        if size == 0 {
            return Ok(body);
        }
        on_chunk();
    }
}

/// De-chunks a complete chunked body held in memory.
#[cfg(test)]
pub fn dechunk(raw: &[u8]) -> io::Result<Vec<u8>> {
    let mut reader = raw;
    read_chunked(&mut reader, &mut || {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_service::http::chunk_bytes;

    #[test]
    fn dechunks_the_service_framing() {
        let fragments: [&[u8]; 3] = [
            b"{\"count\":2,\"results\":[{\"ok\":true}",
            b",{\"ok\":false}",
            b"]}",
        ];
        let mut raw = Vec::new();
        for fragment in fragments {
            raw.extend_from_slice(&chunk_bytes(fragment));
        }
        raw.extend_from_slice(b"0\r\n\r\n");
        assert_eq!(
            dechunk(&raw).unwrap(),
            b"{\"count\":2,\"results\":[{\"ok\":true},{\"ok\":false}]}"
        );
    }

    #[test]
    fn counts_data_chunks_and_reads_hex_sizes() {
        let raw = b"1a\r\nabcdefghijklmnopqrstuvwxyz\r\n2\r\n!!\r\n0\r\n\r\n";
        let mut chunks = 0;
        let body = read_chunked(&mut &raw[..], &mut || chunks += 1).unwrap();
        assert_eq!(body, b"abcdefghijklmnopqrstuvwxyz!!");
        assert_eq!(chunks, 2);
    }

    #[test]
    fn rejects_truncated_and_malformed_bodies() {
        assert!(dechunk(b"5\r\nabc").is_err());
        assert!(dechunk(b"3\r\nabcXY0\r\n\r\n").is_err());
        assert!(dechunk(b"zz\r\nabc\r\n0\r\n\r\n").is_err());
        assert!(dechunk(b"3\r\nabc\r\n").is_err());
        assert_eq!(dechunk(b"0\r\n\r\n").unwrap(), b"");
    }
}
