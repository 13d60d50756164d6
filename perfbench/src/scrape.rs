//! Reading the server's own `/metrics` text endpoint.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Fetches the metrics text over HTTP from the server's port (the server
/// answers any connection that opens with `GET ` with its registry).
pub fn fetch(addr: SocketAddr) -> std::io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    match raw.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "metrics response without a header terminator",
        )),
    }
}

/// The value of the series `name` (with `labels` such as
/// `backend="analog"` when the series is labelled), or `None` when no line
/// carries exactly that series. A name never matches a longer name it is a
/// prefix of.
pub fn value(text: &str, name: &str, labels: Option<&str>) -> Option<f64> {
    let series = match labels {
        Some(l) => format!("{name}{{{l}}}"),
        None => name.to_string(),
    };
    text.lines().find_map(|line| {
        let (key, val) = line.trim().rsplit_once(' ')?;
        if key == series {
            val.parse().ok()
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "mda_latency_us_count 12\n\
                        mda_latency_us_mean 41.5\n\
                        mda_latency_us{quantile=\"0.5\"} 50\n\
                        mda_latency_us_max 900\n\
                        mda_backend_selected_total{backend=\"analog\"} 7\n\
                        mda_backend_selected_total{backend=\"acam\"} 3\n\
                        mda_shed_total 0\n";

    #[test]
    fn exact_name_match_only() {
        assert_eq!(value(TEXT, "mda_latency_us_mean", None), Some(41.5));
        // `mda_latency_us` is a prefix of several series but no line
        // carries it bare.
        assert_eq!(value(TEXT, "mda_latency_us", None), None);
        assert_eq!(value(TEXT, "mda_latency", None), None);
        assert_eq!(value(TEXT, "mda_shed_total", None), Some(0.0));
    }

    #[test]
    fn labelled_series() {
        let b = "mda_backend_selected_total";
        assert_eq!(value(TEXT, b, Some("backend=\"analog\"")), Some(7.0));
        assert_eq!(value(TEXT, b, Some("backend=\"acam\"")), Some(3.0));
        assert_eq!(value(TEXT, b, None), None);
        assert_eq!(
            value(TEXT, "mda_latency_us", Some("quantile=\"0.5\"")),
            Some(50.0)
        );
    }

    #[test]
    fn missing_lines() {
        let b = "mda_backend_selected_total";
        assert_eq!(value(TEXT, b, Some("backend=\"spice\"")), None);
        assert_eq!(value(TEXT, "mda_stream_push_us_mean", None), None);
        assert_eq!(value("", "mda_shed_total", None), None);
        assert_eq!(value("mda_shed_total\n", "mda_shed_total", None), None);
    }
}
