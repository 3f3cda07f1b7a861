//! A minimal, dependency-free HTTP/1.1 layer over `std::net`.
//!
//! Exactly what the benchmark service needs and nothing more: one
//! request per connection (`Connection: close` on every response),
//! `Content-Length` bodies on requests, and either sized or
//! close-delimited bodies on responses. Close-delimited responses are
//! what make long-lived NDJSON streams trivial — the server writes a
//! line per event and flushes; the client reads lines until EOF. A
//! cancelled or failed campaign still yields a *well-formed partial
//! stream*, because every write is a whole line.

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Upper bound on request bodies (problem sets are a few hundred KiB at
/// most; anything bigger is a client error, not a workload).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request path, query string excluded.
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed (mapped to a 4xx by the server).
#[derive(Debug)]
pub enum RequestError {
    /// The connection closed before a full request arrived.
    ConnectionClosed,
    /// The bytes on the wire were not an HTTP/1.1 request.
    Malformed(&'static str),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The client stalled past the socket read deadline mid-request —
    /// mapped to a 408 so the worker thread is freed instead of held
    /// hostage by a half-sent request.
    TimedOut,
    /// Transport failure mid-request.
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        if matches!(
            e.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ) {
            RequestError::TimedOut
        } else {
            RequestError::Io(e)
        }
    }
}

/// Reads one request off the stream.
///
/// # Errors
///
/// Returns [`RequestError::ConnectionClosed`] on a clean EOF before any
/// bytes, [`RequestError::Malformed`]/[`RequestError::BodyTooLarge`]
/// for protocol violations, and [`RequestError::Io`] for transport
/// failures.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    let mut reader = BufReader::new(stream);
    let mut head = Vec::new();
    // Read byte-wise until the blank line; requests are tiny and the
    // BufReader makes this one syscall per chunk, not per byte.
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if head.is_empty() {
                    return Err(RequestError::ConnectionClosed);
                }
                return Err(RequestError::Malformed("truncated request head"));
            }
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(e.into()),
        }
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(RequestError::Malformed("request head too large"));
        }
    }
    let head = std::str::from_utf8(&head[..head.len() - 4])
        .map_err(|_| RequestError::Malformed("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(RequestError::Malformed("missing method"))?;
    let target = parts
        .next()
        .ok_or(RequestError::Malformed("missing request target"))?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(RequestError::Malformed("unsupported protocol version")),
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(RequestError::Malformed("header without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| RequestError::Malformed("unparseable content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if matches!(
            e.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ) {
            RequestError::TimedOut
        } else {
            RequestError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "body shorter than content-length",
            ))
        }
    })?;

    Ok(Request {
        method: method.to_string(),
        path,
        headers,
        body,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a sized JSON response (and `Connection: close`). Head and
/// body go out in one `write_all`, so one `send` on a socket.
///
/// # Errors
///
/// Propagates transport failures — callers treat them as "client went
/// away".
pub fn write_json(stream: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    response.push_str(body);
    stream.write_all(response.as_bytes())
}

/// Writes a JSON error body `{"error": …}` with the given status.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_error(stream: &mut impl Write, status: u16, message: &str) -> io::Result<()> {
    let body = picbench_netlist::json::to_string(&picbench_netlist::json::Value::Object(vec![(
        "error".to_string(),
        picbench_netlist::json::Value::String(message.to_string()),
    )]));
    write_json(stream, status, &body)
}

/// Starts a close-delimited NDJSON stream: status line and headers
/// only — the caller then writes newline-terminated event lines and
/// the stream ends when the connection closes.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_stream_head(stream: &mut impl Write) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_json_response_is_one_write() {
        let mut out = CountingWriter::default();
        write_json(&mut out, 201, r#"{"id":"c-1","state":"running"}"#).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "HTTP/1.1 201 Created\r\nContent-Type: application/json\r\nContent-Length: 30\r\n\
             Connection: close\r\n\r\n{\"id\":\"c-1\",\"state\":\"running\"}"
        );
    }

    #[test]
    fn an_error_response_is_one_write() {
        let mut out = CountingWriter::default();
        write_error(&mut out, 404, "no such campaign").unwrap();
        assert_eq!(out.writes, 1);
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(
            text.ends_with("\r\n\r\n{\"error\":\"no such campaign\"}"),
            "{text}"
        );
    }
}
