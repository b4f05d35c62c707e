# module: app.sharding.door
"""CSP009: a coordinate in a reply column zipped into a frame."""


def reply_frame(seq, shards, point):
    replies = [b"ack", repr(point.x)]
    return encode_frame(2, seq, zip(shards, replies))  # wire sink
