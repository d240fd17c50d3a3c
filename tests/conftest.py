from hypothesis import settings

# Property tests draw the same examples on every run, and no example fails
# for running slowly on a loaded host.
settings.register_profile("emot", derandomize=True, deadline=None)
settings.load_profile("emot")
