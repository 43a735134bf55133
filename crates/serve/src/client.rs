//! A minimal blocking HTTP/1.1 client for the scenarios, `repro probe`
//! and tests.
//!
//! One request per connection, matching the server's `Connection: close`
//! model. The response parser is as bounded as the server's request
//! parser: capped status/header lines, and a body read that trusts
//! `Content-Length` when present but falls back to read-to-EOF (the
//! server always closes after one response).

use foldic_obs::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest accepted response status or header line.
const MAX_LINE: usize = 8192;
/// Largest accepted response body (manifests are tens of KiB).
const MAX_BODY: usize = 64 << 20;

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// A message when the body is not UTF-8.
    pub fn body_text(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| format!("body is not UTF-8: {e}"))
    }

    /// The body parsed as JSON.
    ///
    /// # Errors
    ///
    /// A message when the body is not UTF-8 or not valid JSON.
    pub fn body_json(&self) -> Result<Json, String> {
        Json::parse(self.body_text()?).map_err(|e| format!("body is not JSON: {e}"))
    }
}

fn read_line(reader: &mut dyn BufRead, what: &str) -> std::io::Result<String> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("truncated {what}"),
                ))
            }
            _ => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return String::from_utf8(buf).map_err(|e| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("{what} is not UTF-8: {e}"),
                        )
                    });
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{what} exceeds {MAX_LINE} bytes"),
                    ));
                }
            }
        }
    }
}

/// Sends one request and reads the one response.
///
/// # Errors
///
/// Propagates connect/read/write failures and malformed responses as
/// `std::io::Error`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    request_with_headers(addr, method, path, &[], body, timeout)
}

/// Like [`request`], with extra request headers — e.g. an
/// `x-request-id` the daemon echoes through its telemetry.
///
/// # Errors
///
/// See [`request`].
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    let body_bytes = body.map(str::as_bytes).unwrap_or_default();
    write!(writer, "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n")?;
    for (name, value) in headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    write!(writer, "Content-Length: {}\r\n\r\n", body_bytes.len())?;
    writer.write_all(body_bytes)?;
    writer.flush()?;

    let mut reader = BufReader::new(stream);
    let status_line = read_line(&mut reader, "status line")?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed status line `{status_line}`"),
            )
        })?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut reader, "header")?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let body = match length {
        Some(len) if len > MAX_BODY => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("body of {len} bytes exceeds the {MAX_BODY}-byte limit"),
            ))
        }
        Some(len) => {
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            body
        }
        None => {
            let mut body = Vec::new();
            reader.take(MAX_BODY as u64).read_to_end(&mut body)?;
            body
        }
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// `GET path`.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<HttpResponse> {
    request(addr, "GET", path, None, timeout)
}

/// `POST path` with a JSON document body.
///
/// # Errors
///
/// See [`request`].
pub fn post_json(
    addr: SocketAddr,
    path: &str,
    doc: &Json,
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    request(addr, "POST", path, Some(&doc.to_compact()), timeout)
}

/// `POST path` with an empty body (cancel, shutdown).
///
/// # Errors
///
/// See [`request`].
pub fn post(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<HttpResponse> {
    request(addr, "POST", path, None, timeout)
}
