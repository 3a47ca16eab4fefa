"""Property tests: wire framing survives arbitrary TCP segmentation.

TCP gives no message boundaries — a peer's reply may arrive one byte
at a time (the chaos relay's *dribble* mode does exactly this) or cut
into chunks at any offsets.  These tests serialize real ``Request`` /
``Response`` messages, feed each through the reader its receiving side
uses (:func:`repro.live.wire.read_request` /
:func:`~repro.live.wire.read_response`) under hypothesis-chosen
segmentations, and require the parse to be byte-exact: the consumed
count equals the payload length and the message round-trips to the
identical serialization.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.messages import Request, Response, make_ok
from repro.live.wire import LiveWireError, read_request, read_response


def _requests() -> st.SearchStrategy[str]:
    """Serialized GET requests with the headers the live mode uses."""

    @st.composite
    def build(draw) -> str:
        path = draw(st.sampled_from(["/a", "/b/img", "/__control__/stats"]))
        request = Request("GET", path)
        request.headers.set_date("Date", float(draw(
            st.integers(min_value=-5000, max_value=10**7)
        )))
        if draw(st.booleans()):
            request.headers.set_date("If-Modified-Since", float(draw(
                st.integers(min_value=-5000, max_value=10**7)
            )))
        if draw(st.booleans()):
            request.headers.set("Connection", "keep-alive")
        if draw(st.booleans()):
            request.headers.set("X-Repro-Seq", f"r{draw(st.integers(0, 999))}")
        return request.serialize()

    return build()


def _responses() -> st.SearchStrategy[str]:
    """Serialized 200 responses with hypothesis-sized bodies."""

    @st.composite
    def build(draw) -> str:
        size = draw(st.integers(min_value=0, max_value=300))
        last_modified = draw(st.one_of(
            st.none(),
            st.integers(min_value=-5000, max_value=10**7).map(float),
        ))
        response = make_ok(size, last_modified=last_modified)
        return response.serialize()

    return build()


async def _read_request(reader: asyncio.StreamReader):
    """``read_request`` in ``read_response``'s shape (bodiless)."""
    request, nbytes = await read_request(reader)
    return request, "", nbytes


def _messages() -> st.SearchStrategy[tuple]:
    """``(read, text)``: a serialized message and its side's reader."""
    return st.one_of(
        _requests().map(lambda text: (_read_request, text)),
        _responses().map(lambda text: (read_response, text)),
    )


async def _read_segmented(
    read, payload: bytes, cuts: list[int]
) -> tuple[object, str, int]:
    """Parse ``payload`` delivered in chunks split at ``cuts``.

    The feeder yields to the event loop between chunks so the parser
    genuinely blocks on partial data instead of finding everything
    pre-buffered.
    """
    bounds = sorted({c % (len(payload) + 1) for c in cuts})
    chunks = [
        payload[lo:hi]
        for lo, hi in zip([0, *bounds], [*bounds, len(payload)])
        if payload[lo:hi]
    ]
    reader = asyncio.StreamReader()

    async def feed() -> None:
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)
        reader.feed_eof()

    feeder = asyncio.ensure_future(feed())
    try:
        return await read(reader)
    finally:
        await feeder


def _roundtrip(message: object, body: str) -> str:
    if isinstance(message, Response):
        return message.serialize(body)
    assert isinstance(message, Request)
    assert body == ""
    return message.serialize()


class TestSegmentedParsing:
    @settings(max_examples=60, deadline=None)
    @given(case=_messages())
    def test_byte_at_a_time_is_byte_exact(self, case):
        read, text = case
        payload = text.encode("latin-1")
        message, body, nbytes = asyncio.run(
            _read_segmented(read, payload, list(range(len(payload))))
        )
        assert nbytes == len(payload)
        assert _roundtrip(message, body) == text

    @settings(max_examples=120, deadline=None)
    @given(
        case=_messages(),
        cuts=st.lists(st.integers(min_value=0, max_value=10**6),
                      max_size=12),
    )
    def test_random_split_points_are_byte_exact(self, case, cuts):
        read, text = case
        payload = text.encode("latin-1")
        message, body, nbytes = asyncio.run(
            _read_segmented(read, payload, cuts)
        )
        assert nbytes == len(payload)
        assert _roundtrip(message, body) == text

    @settings(max_examples=60, deadline=None)
    @given(
        messages=st.lists(_messages(), min_size=2, max_size=4),
        cuts=st.lists(st.integers(min_value=0, max_value=10**6),
                      max_size=12),
    )
    def test_back_to_back_messages_keep_their_boundaries(
        self, messages, cuts
    ):
        """Keep-alive framing: consecutive messages on one stream parse
        independently whatever the segmentation across them."""
        texts = [text for _, text in messages]
        payload = "".join(texts).encode("latin-1")
        bounds = sorted({c % (len(payload) + 1) for c in cuts})
        chunks = [
            payload[lo:hi]
            for lo, hi in zip([0, *bounds], [*bounds, len(payload)])
            if payload[lo:hi]
        ]

        async def read_all() -> list[tuple[object, str, int]]:
            reader = asyncio.StreamReader()

            async def feed() -> None:
                for chunk in chunks:
                    reader.feed_data(chunk)
                    await asyncio.sleep(0)
                reader.feed_eof()

            feeder = asyncio.ensure_future(feed())
            try:
                return [await read(reader) for read, _ in messages]
            finally:
                await feeder

        parsed = asyncio.run(read_all())
        assert [nbytes for _, _, nbytes in parsed] == [
            len(t) for t in texts
        ]
        assert [
            _roundtrip(message, body) for message, body, _ in parsed
        ] == texts


class TestRepeatedContentLength:
    """A head that repeats ``Content-Length`` is framed by the value its
    model reads, whatever the segmentation: two different values are
    refused before any body byte is taken, identical ones frame the
    body they name and leave the rest for the next message."""

    @settings(max_examples=60, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=0, max_value=10**6),
                         max_size=12))
    def test_conflicting_values_are_refused(self, cuts):
        payload = (b"HTTP/1.0 200 OK\r\nContent-Length: 3\r\n"
                   b"Content-Length: 5\r\n\r\nabcdeXY")
        with pytest.raises(LiveWireError, match="conflicting"):
            asyncio.run(_read_segmented(read_response, payload, cuts))

    @settings(max_examples=60, deadline=None)
    @given(cuts=st.lists(st.integers(min_value=0, max_value=10**6),
                         max_size=12))
    def test_identical_values_frame_one_body(self, cuts):
        head = (b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n"
                b"CONTENT-LENGTH: 5\r\n\r\n")
        payload = head + b"abcde" + make_ok(2).serialize().encode("latin-1")

        async def read_two(reader: asyncio.StreamReader):
            return [await read_response(reader), await read_response(reader)]

        first, second = asyncio.run(_read_segmented(read_two, payload, cuts))
        assert first[1:] == ("abcde", len(head) + 5)
        assert first[0].body_size == 5
        assert second[1] == "xx"
